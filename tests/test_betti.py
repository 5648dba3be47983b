import ast
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, gcd
from pathlib import Path

import pytest

from ginlab import betti
from ginlab.betti import (
    IDEAL,
    QUOTIENT,
    HomologyWorkspace,
    NotStronglyStableError,
    WindowError,
    _homology_table,
    _regular_section,
    ahh_betti,
    betti_table,
    bigatti_betti,
    cartan_betti,
    ek_betti,
    has_linear_resolution,
    is_componentwise_linear,
    koszul_betti,
    mult_var,
    regularity,
)
from ginlab.corpus import ACCEPTANCE_SPECS, CorpusSpec, generate
from ginlab.groebner import gin, initial_ideal
from ginlab.ideals import (
    Ideal,
    MonomialIdeal,
    degree_rows,
    graded_piece_basis,
    is_strongly_stable,
    minimal_generators,
)
from ginlab.linalg import IntRank
from ginlab.oracles import oracle_equivalences
from ginlab.parsing import parse_ideal, render_ideal
from ginlab.rigidity import battery
from ginlab.rings import (
    DEGREVLEX,
    EXT,
    POLY,
    Element,
    apply_linear_change,
    exterior_ring,
    polynomial_ring,
    wedge_supports,
)

from conftest import (
    STAIRCASE_3,
    cartan_ranks,
    cartan_table,
    ext,
    fraction_det,
    load_perfbench,
)
from test_homology_values import REFERENCE
from test_linalg import ReferenceRref



def random_borel(ring, rng, tries=8):
    """Random strongly stable ideal: Borel closure of a few monomials."""
    n = ring.n
    seeds = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 4)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        seeds.append(tuple(exps))
    closure = set(seeds)
    frontier = list(seeds)
    while frontier:
        u = frontier.pop()
        for j in range(n):
            if not u[j]:
                continue
            for i in range(j):
                moved = list(u)
                moved[j] -= 1
                moved[i] += 1
                moved = tuple(moved)
                if moved not in closure:
                    closure.add(moved)
                    frontier.append(moved)
    return minimal_generators(ring, closure)


class TestKoszul:
    def test_regular_sequence(self):
        I = parse_ideal("ring poly 3 QQ\nx1\nx2\nx3\n")
        T = koszul_betti(I)
        assert T.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}

    def test_cancel_ideal_convention(self, cancel4):
        T = koszul_betti(cancel4).as_convention(IDEAL)
        assert T.entries == {
            (0, 3): 6,
            (1, 4): 6,
            (1, 5): 1,
            (2, 5): 1,
            (2, 6): 1,
        }

    def test_strand_quotient_convention(self, strand4):
        T = koszul_betti(strand4)
        assert T.entries == {
            (0, 0): 1,
            (1, 3): 3,
            (2, 4): 1,
            (2, 6): 2,
            (3, 7): 1,
        }

    def test_zero_ideal(self):
        # every variable is regular, but the section keeps one of them
        I = Ideal.zero(polynomial_ring(3))
        section = _regular_section(I)
        assert section.ring == polynomial_ring(1) and section.is_zero()
        T = koszul_betti(I)
        assert T.entries == {(0, 0): 1}
        assert T.window == {"strand_max": -1, "i_max": 3}

    def test_euler_characteristic(self, staircase3):
        # alternating sums of Betti numbers match those of the chain spaces
        T = koszul_betti(staircase3, reg_bound=6)
        ring = staircase3.ring
        n = ring.n
        for j in range(1, 7):
            chain = sum(
                (-1) ** i
                * comb(n, i)
                * (ring.dim(j - i) - staircase3.dim_piece(j - i))
                for i in range(0, n + 1)
                if j - i >= 0
            )
            hom = sum((-1) ** i * T.get(i, j) for i in range(0, n + 1))
            assert chain == hom


def full_koszul(ideal, r):
    """The table of R/I from the Koszul complex on all n variables."""
    return _homology_table(ideal, ideal.ring.n, r, r)


class TestDepthReduction:
    """koszul_betti on the regular section against the full Koszul complex."""

    def test_full_koszul_oracle(self, staircase3, cancel4, strand4):
        inputs = [
            I for spec in ACCEPTANCE_SPECS if spec.kind == POLY
            for I in generate(spec)
        ]
        assert len(inputs) == 64
        shrunk = Counter()
        for label, ideal in (
            [("input", I) for I in inputs]
            + [("ref", I) for I in (staircase3, cancel4, strand4)]
        ):
            J = gin(ideal)[0]
            r = J.max_gen_degree()
            for tag, X in ((label, ideal), (label + "-gin", J.to_ideal())):
                section = _regular_section(X)
                n, m = X.ring.n, section.ring.n
                assert gin(section)[0].max_gen_degree() == r, (tag, X)
                if m < n:
                    shrunk[tag] += 1
                table = koszul_betti(X)
                assert table.ring == X.ring
                assert table.window == {"strand_max": r - 1, "i_max": n}
                assert table.entries == full_koszul(X, r), (tag, X)
        # pinned: a lost reduction or a widened one both move these
        assert shrunk == {"input": 22, "input-gin": 42, "ref-gin": 2}

    def test_seeded_section_initial_ideal(self):
        # the section's in_revlex is seeded from in_revlex(I); Buchberger on
        # a fresh Ideal with the section's generators is the oracle
        seeded = 0
        for spec in ACCEPTANCE_SPECS:
            if spec.kind != POLY:
                continue
            for I in generate(spec):
                section = _regular_section(I)
                if section is I:
                    continue
                seeded += 1
                fresh = Ideal(section.ring, section.generators)
                assert section._memo[("initial", DEGREVLEX)] == initial_ideal(
                    fresh, DEGREVLEX
                ), I.generators
        assert seeded == 22

    def test_redundant_generator_vanishes(self):
        I = parse_ideal("ring poly 3 QQ\nx1^2\nx1^2*x3\n")
        section = _regular_section(I)
        assert section.ring == polynomial_ring(1)
        assert section.generators == (Element(section.ring, {(2,): 1}),)
        assert koszul_betti(I).entries == full_koszul(I, 2) == {
            (0, 0): 1, (1, 2): 1,
        }

    def test_lex_ring_reduces_by_revlex(self):
        # in_lex = (x1*x3) would keep x3; in_revlex = (x2^2) drops it
        I = parse_ideal("ring poly 3 QQ lex\nx1*x3 + x2^2\n")
        section = _regular_section(I)
        assert section.ring == polynomial_ring(2, "lex")
        T = koszul_betti(I)
        assert T.ring == I.ring and T.window["i_max"] == 3
        assert T.entries == full_koszul(I, 2) == {(0, 0): 1, (1, 2): 1}

    def test_free_variable_not_trailing_is_kept(self):
        # x2 is free but x3 divides a generator, so nothing is dropped
        I = parse_ideal("ring poly 3 QQ\nx1^2\nx3^2\n")
        assert _regular_section(I) is I
        assert koszul_betti(I).entries == {
            (0, 0): 1, (1, 2): 2, (2, 4): 1,
        }

    def test_dense_quadrics_drop_two_variables(self):
        # q5 of the generic benchmark workload (perfbench/workloads.py):
        # three dense quadrics in five variables, a complete intersection
        # of depth 2 whose table is the Koszul complex on the quadrics
        ring = polynomial_ring(5)
        rng = random.Random("perfbench:quadrics:q5")
        I = Ideal(ring, [
            Element(ring, {m: rng.randint(-4, 4) for m in ring.monomials(2)})
            for _ in range(3)
        ])
        assert _regular_section(I).ring.n == 3
        assert koszul_betti(I).entries == {
            (0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1,
        }


class TestIndependentChecks:
    """Tables of inputs that are not monomial, checked without gin."""

    @pytest.mark.parametrize("kind,n", [(POLY, 3), (EXT, 4)])
    def test_invariant_under_coordinate_change(self, kind, n):
        # binomial and dense generators of degree <= 3, as in the corpus
        spec = CorpusSpec(
            kind=kind, n=n, count=4, seed=7, max_degree=3,
            min_generators=2, max_generators=3, weights=(1, 3, 2),
        )
        rng = random.Random(f"coordinate-change:{kind}")
        for ideal in generate(spec):
            while True:
                g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                if fraction_det(g):
                    break
            gens = [apply_linear_change(f, g) for f in ideal.generators]
            moved = Ideal(ideal.ring, gens)
            assert betti_table(moved).entries == betti_table(ideal).entries

    def test_complete_intersection(self):
        # dense forms of degrees 2, 2, 3: the Koszul complex on them is the
        # minimal resolution, with one free summand per subset of the forms
        ring = polynomial_ring(3)
        rng = random.Random("complete-intersection")
        forms = [
            Element(ring, {m: rng.choice([-9, -5, 1, 2, 7])
                           for m in ring.monomials(d)})
            for d in (2, 2, 3)
        ]
        T = koszul_betti(Ideal(ring, forms))
        assert T.entries == {
            (0, 0): 1,
            (1, 2): 2,
            (1, 3): 1,
            (2, 4): 1,
            (2, 5): 2,
            (3, 7): 1,
        }


class TestClosedForms:
    def test_ek_two_variables(self):
        J = MonomialIdeal(polynomial_ring(2), [(1, 0), (0, 1)])
        T = ek_betti(J).as_convention(IDEAL)
        assert T.entries == {(0, 1): 2, (1, 2): 1}

    def test_ek_square(self):
        J = MonomialIdeal(polynomial_ring(2), [(2, 0), (1, 1), (0, 2)])
        T = ek_betti(J).as_convention(IDEAL)
        assert T.entries == {(0, 2): 3, (1, 3): 2}
        K = koszul_betti(J.to_ideal(), reg_bound=2).as_convention(IDEAL)
        assert K.entries == T.entries

    def test_ek_requires_stable(self):
        J = MonomialIdeal(polynomial_ring(2), [(0, 1)])
        with pytest.raises(NotStronglyStableError):
            ek_betti(J)

    def test_bigatti_principal(self):
        J = MonomialIdeal(polynomial_ring(2), [(1, 0)])
        assert bigatti_betti(J).entries == koszul_betti(
            J.to_ideal(), reg_bound=1
        ).entries

    def test_three_way_on_gins(self, staircase3, cancel4):
        for I in (staircase3, cancel4):
            J, _ = gin(I, seed=0)
            kz = koszul_betti(J.to_ideal(), reg_bound=J.max_gen_degree())
            assert bigatti_betti(J).entries == kz.entries
            assert ek_betti(J).entries == kz.entries

    def test_three_way_on_random_borel(self):
        rng = random.Random(12)
        for n in (2, 3, 4):
            ring = polynomial_ring(n)
            for _ in range(4):
                J = random_borel(ring, rng)
                assert is_strongly_stable(J)
                kz = koszul_betti(J.to_ideal(), reg_bound=J.max_gen_degree())
                assert ek_betti(J).entries == kz.entries
                assert bigatti_betti(J).entries == kz.entries

    def test_closed_form_windows_agree_on_corpus_gins(self):
        # both closed forms are built as beta(S/J), window included
        gins = [
            gin(I)[0] for spec in ACCEPTANCE_SPECS if spec.kind == POLY
            for I in generate(spec)
        ]
        assert len(gins) == 64
        for J in gins:
            ek, bg = ek_betti(J), bigatti_betti(J)
            assert ek.window == bg.window, J
            assert ek.entries == bg.entries, J


class TestCartan:
    def test_principal_variable(self):
        I = parse_ideal("ring ext 3 QQ\ne1\n")
        T = cartan_betti(I, i_max=5)
        assert all(T.get(i, i) == 1 for i in range(1, 6))

    def test_residue_field(self):
        n = 3
        I = parse_ideal("ring ext 3 QQ\ne1\ne2\ne3\n")
        T = cartan_betti(I, i_max=5)
        for i in range(1, 6):
            assert T.get(i, i) == comb(n + i - 1, i)

    def test_negative_i_max_raises(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        with pytest.raises(ValueError, match="i_max"):
            cartan_betti(I, i_max=-1)
        with pytest.raises(ValueError, match="i_max"):
            ahh_betti(I.monomial_image(), i_max=-1)

    def test_two_form_strand(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        T = cartan_betti(I, i_max=6)
        assert all(T.get(i, i + 1) == i for i in range(1, 7))

    def test_ahh_matches_cartan(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        J = I.monomial_image()
        assert ahh_betti(J, i_max=6).entries == cartan_betti(I, i_max=6).entries

    def test_ahh_two_variables(self):
        ring = exterior_ring(2)
        J = MonomialIdeal(ring, [ext(2, 0), ext(2, 1)])
        A = ahh_betti(J, i_max=5)
        C = cartan_betti(J.to_ideal(), i_max=5)
        assert A.entries == C.entries
        for i in range(1, 6):
            assert A.get(i, i) == comb(i + 1, i)

    def test_dominance(self):
        I = parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n")
        J, _ = gin(I, seed=0)
        a = cartan_betti(I, i_max=6)
        b = cartan_betti(J.to_ideal(), i_max=6)
        for (i, j), v in a.entries.items():
            assert v <= b.get(i, j)


def exterior_corpus_gins():
    """The certified gins of the 36 exterior acceptance ideals."""
    gins = [
        gin(I)[0] for spec in ACCEPTANCE_SPECS if spec.kind == EXT
        for I in generate(spec)
    ]
    assert len(gins) == 36
    return gins


def random_squarefree(rng):
    """1-5 squarefree generators of degree 2-3 in n = 4..6 variables, as
    the same 0/1 vectors over S and over E."""
    n = rng.randint(4, 6)
    gens = []
    for _ in range(rng.randint(1, 5)):
        support = rng.sample(range(n), rng.choice([2, 3]))
        gens.append(tuple(int(t in support) for t in range(n)))
    return (
        minimal_generators(polynomial_ring(n), gens),
        minimal_generators(exterior_ring(n), gens),
    )


class TestSquarefree:
    """Exterior tables of monomial ideals take the module route like every
    exterior table; the full-column Cartan complex (conftest.cartan_table),
    the AHH closed form and the Koszul tables over S check them."""

    def test_cartan_complex_on_the_corpus(self):
        # the 10 monomial exterior inputs, the 36 exterior gins, (e1) and
        # the maximal ideal of E with n = 3
        ideals = [
            I for spec in ACCEPTANCE_SPECS if spec.kind == EXT
            for I in generate(spec) if I.monomial_image() is not None
        ]
        assert len(ideals) == 10
        ideals += [J.to_ideal() for J in exterior_corpus_gins()]
        ideals += [
            parse_ideal("ring ext 3 QQ\ne1\n"),
            parse_ideal("ring ext 3 QQ\ne1\ne2\ne3\n"),
        ]
        for I in ideals:
            n = I.ring.n
            assert cartan_betti(I).entries == cartan_table(I, n + 3), (
                I.monomial_image()
            )

    def test_ahh_past_the_window(self):
        for J in exterior_corpus_gins():
            i_max = 3 * J.ring.n
            table = cartan_betti(J.to_ideal(), i_max=i_max)
            assert table.entries == ahh_betti(J, i_max=i_max).entries, J

    def test_cross_ring_oracle(self):
        # beta^E_{i,i+j}(J) = sum_k C(i+j-1, k+j-1) beta^S_{k,k+j}(I) in
        # the ideal convention, for I and J on the same 0/1 generators
        rng = random.Random(34)
        pairs = [random_squarefree(rng) for _ in range(40)]
        for J in exterior_corpus_gins():
            pairs.append((MonomialIdeal(polynomial_ring(J.ring.n), J.gens), J))
        assert len(pairs) == 76
        for I, J in pairs:
            n = J.ring.n
            S = koszul_betti(I.to_ideal()).as_convention(IDEAL)
            E = cartan_betti(J.to_ideal(), i_max=3 * n).as_convention(IDEAL)
            want = {}
            for i in range(3 * n):
                for j in S.strands():
                    b = sum(
                        comb(i + j - 1, k + j - 1) * S.get(k, k + j)
                        for k in range(n)
                    )
                    if b:
                        want[(i, i + j)] = b
            assert {c: b for c, b in E.entries.items() if c[0] < 3 * n} == want, J


def module_builds(monkeypatch):
    """The argument tuples of betti.initial_submodule from here on: one
    module Groebner basis per strand the module route builds."""
    built = []
    real = betti.initial_submodule

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(betti, "initial_submodule", counting)
    return built


def dense_exterior_quadrics_e4():
    """Three dense quadrics in E with four variables, coefficients in [-4, 4]."""
    ring = exterior_ring(4)
    rng = random.Random("e4")
    return Ideal(ring, [
        Element(ring, {m: rng.randint(-4, 4) for m in ring.monomials(2)})
        for _ in range(3)
    ])


class TestModuleRoute:
    """Every exterior boundary rank comes from one module Groebner basis
    per strand (HomologyWorkspace._module_rank); the full-column Cartan
    complex (conftest.cartan_ranks) checks those ranks and tables inside
    the window, and the AHH closed form checks that complex past it."""

    def test_ranks_equal_the_cartan_complex(self):
        ideals = [
            I for spec in ACCEPTANCE_SPECS if spec.kind == EXT
            for I in generate(spec) if I.monomial_image() is None
        ]
        assert len(ideals) == 26
        ideals.append(dense_exterior_quadrics_e4())
        for I in ideals:
            n = I.ring.n
            full = cartan_ranks(I)
            ws = HomologyWorkspace(I)
            for i in range(n + 5):
                for k in range(n + 1):
                    rank = ws.boundary_rank(n, i, i + k)
                    assert rank == full(i, i + k), (I, i, k)
            assert cartan_betti(I).entries == cartan_table(I, n + 3), I

    def test_ahh_past_the_window(self):
        # the oracle itself against the closed form, at i <= 3n;
        # TestSquarefree checks cartan_betti against it there
        for J in exterior_corpus_gins():
            i_max = 3 * J.ring.n
            table = cartan_table(J.to_ideal(), i_max)
            assert table == ahh_betti(J, i_max=i_max).entries, J

    def test_strands_are_built_once(self, monkeypatch):
        # every window reads the numerators kept in the coordinate state:
        # one module Groebner basis per strand k with (E/I)_k != 0
        built = module_builds(monkeypatch)
        I = dense_exterior_quadrics_e4()
        table = cartan_betti(I)
        strands = I._memo[("workspace",)][4]
        assert sorted(strands) == [
            (4, k) for k in range(5) if I.piece(k).std_monomials
        ]
        assert len(built) == len(strands)
        wide = cartan_betti(I, i_max=12)
        assert len(built) == len(strands)
        assert {c: b for c, b in wide.entries.items() if c[0] <= 7} == table.entries
        assert max(i for i, _ in wide.entries) == 12


@pytest.mark.parametrize("kind", [POLY, EXT])
def test_chain_order_is_pinned(kind):
    """chain_sets lists C_i(p) in the order of combinations (S) or
    combinations_with_replacement (E) of range(p): the order that indexes
    the columns of every elimination, and with it coefficient growth;
    chain_dim counts it."""
    ring = polynomial_ring(5) if kind == POLY else exterior_ring(5)
    ws = HomologyWorkspace(Ideal(ring, [ring.variable(0)]))
    pick = combinations if kind == POLY else combinations_with_replacement
    for p in range(6):
        for i in range(7):
            want = [tuple(c.count(t) for t in range(p)) for c in pick(range(p), i)]
            assert ws.chain_sets(p, i) == want, (p, i)
            assert ws.chain_dim(p, i, i + 1) == len(want) * ws.dim(1), (p, i)


def generic_q4_quadrics():
    """The generic workload's q4: three dense quadrics in four variables,
    coefficients in [-4, 4]."""
    workloads = load_perfbench("workloads")
    kind, n, count = workloads.QUADRICS["q4"]
    return workloads.dense_quadrics(kind, n, count, "q4")


class TestIntegerTables:
    """Multiplication tables come out integer: the table into degree d + 1
    is piece(d + 1).den times the normal forms over QQ, and the homology
    engine feeds IntRank integer columns only."""

    @pytest.mark.parametrize("text", [
        "ring poly 2 QQ\nx1^2 + 1/2*x1*x2\n",
        "ring ext 3 QQ\ne1*e2 + 2/3*e2*e3\n",
        REFERENCE["dense"],
        # dense pieces, where the back-substitution has work to do
        render_ideal(dense_exterior_quadrics_e4()),
        render_ideal(generic_q4_quadrics()),
        # monomial pieces: unit rows, den 1
        STAIRCASE_3,
        "ring ext 4 QQ\ne1*e2\ne1*e3*e4\ne2*e3\n",
    ])
    def test_mult_var_is_den_times_reference_normal_form(self, text):
        I = parse_ideal(text)
        ring = I.ring
        for d in range(4):
            piece = I.piece(d + 1)
            if I.monomial_image() is not None:
                assert piece.den == 1
                assert piece.rows == {c: {c: 1} for c in piece.rows}
            ref = ReferenceRref()
            for row in degree_rows(ring, I.generators, d + 1, piece.index):
                ref.add(row)
            tgt = piece._std_index
            for t in range(ring.n):
                for u, col in zip(I.piece(d).std_monomials, mult_var(I, t, d)):
                    assert all(type(v) is int for v in col.values())
                    if ring.is_exterior:
                        sgn, m = wedge_supports(u, ext(ring.n, t))
                    else:
                        sgn, m = 1, tuple(a + (s == t) for s, a in enumerate(u))
                    nf = ref.reduce({piece.index[m]: sgn}) if sgn else {}
                    assert col == {
                        tgt[piece.monomials[c]]: piece.den * v
                        for c, v in nf.items()
                    }

    def test_piece_basis_is_the_reference_rref_on_the_corpus(self):
        # every acceptance ideal and its gin, up to one past the top
        # generator degree: the basis is the reference's rows over QQ,
        # each a primitive integer row with a positive lead; a monomial
        # ideal's rows are unit rows
        ideals = [I for spec in ACCEPTANCE_SPECS for I in generate(spec)]
        ideals += [gin(I)[0].to_ideal() for I in ideals]
        assert len(ideals) == 200
        for I in ideals:
            for d in range(I.max_degree() + 2):
                piece = I.piece(d)
                ref = ReferenceRref()
                for row in degree_rows(I.ring, I.generators, d, piece.index):
                    ref.add(row)
                assert len(piece.rows) == piece.dim == len(ref.pivots)
                basis = graded_piece_basis(I, d)
                assert [
                    {piece.index[m]: c for m, c in f.monic().terms.items()}
                    for f in basis
                ] == [ref.rows[ref.pivots[c]] for c in sorted(ref.pivots)]
                for f in basis:
                    assert f.leading_coefficient() > 0
                    assert all(type(c) is int for c in f.terms.values())
                    assert gcd(*f.terms.values()) == 1

    @pytest.mark.parametrize("text, dens", [
        ("ring poly 2 QQ\nx1^2 + 1/2*x1*x2\n", [1, 1, 2, 4, 8]),
        ("ring ext 3 QQ\ne1*e2 + 2/3*e2*e3\n", [1, 1, 3, 1]),
    ])
    def test_den_is_the_lcm_of_the_leads(self, text, dens):
        # 2*x1^2 + x1*x2 and 3*e1*e2 + 2*e2*e3: the leads pass through
        I = parse_ideal(text)
        assert [I.piece(d).den for d in range(len(dens))] == dens

    @pytest.mark.parametrize("route", ["cartan", "koszul"])
    def test_homology_feeds_int_columns(self, route, monkeypatch):
        fed = []

        class SpyIntRank(IntRank):
            def add(self, row):
                fed.append(row)
                return super().add(row)

        monkeypatch.setattr(betti, "IntRank", SpyIntRank)
        if route == "cartan":
            # Cartan boundary engines over QQ, the kind delta builds over E
            I = dense_exterior_quadrics_e4()
            sweep_cartan_eliminations(I, 7)
            assert max(I.piece(d).den for d in range(5)) > 1
        else:
            assert koszul_betti(parse_ideal(REFERENCE["dense"])).entries
        assert fed
        assert all(type(v) is int for row in fed for v in row.values())


def sweep_cartan_eliminations(ideal, i_max):
    """The boundary eliminations of d_{i,j}, 1 <= i <= i_max + 1 and
    0 <= j - i <= n, of the Cartan complex on the coordinates: each degree
    j from the top i down, the order in which profile ranks a window."""
    n = ideal.ring.n
    ws = HomologyWorkspace(ideal)
    for j in range(i_max + n + 2):
        for i in reversed(range(max(1, j - n), min(j, i_max + 1) + 1)):
            ws._eliminate(n, i, j)


@pytest.mark.parametrize("route", ["cartan", "koszul"])
def test_sweeps_clear_below_the_top(route, monkeypatch):
    """A Betti sweep ranks each degree j from the top i down, and every
    elimination under the first one of its degree is fed chain_dim(p, i, j)
    - rank(p, i + 1, j) columns: those at the pivots of d_{i+1,j} are
    skipped before they are built (HomologyWorkspace._eliminate)."""
    fed = []
    real = HomologyWorkspace._columns

    def counted(self, p, i, j, skip=()):
        record = [self, p, i, j, 0]
        fed.append(record)
        for item in real(self, p, i, j, skip):
            record[-1] += 1
            yield item

    monkeypatch.setattr(HomologyWorkspace, "_columns", counted)
    if route == "cartan":
        # the module route ranks every exterior sweep; the boundary
        # engines of delta still clear, so the sweep is run directly
        sweep_cartan_eliminations(dense_exterior_quadrics_e4(), 7)
    else:
        assert koszul_betti(generic_q4_quadrics()).entries
    below = {}  # (workspace, p, j) -> the last i eliminated
    skipped = 0
    for ws, p, i, j, n in fed:
        key = (id(ws), p, j)
        full = ws.chain_dim(p, i, j)
        if key in below:
            assert i == below[key] - 1, (p, i, j)
            assert n == full - ws._rank[(p, i + 1, j)], (p, i, j)
            skipped += full - n
        else:
            assert n == full, (p, i, j)
        below[key] = i
    assert skipped > 0


class TestTableMemo:
    def test_gin_to_ideal_is_one_object(self, staircase3):
        J, _ = gin(staircase3, seed=0)
        assert gin(staircase3, seed=0)[0].to_ideal() is J.to_ideal()

    @pytest.mark.parametrize("kind", ["poly", "ext"])
    def test_returned_entries_are_copies(self, kind, staircase3):
        I = staircase3 if kind == "poly" else parse_ideal(REFERENCE["ext4"])
        first = betti_table(I)
        expected = dict(first.entries)
        first.entries[(0, 0)] = 7
        first.entries[(9, 9)] = 1
        assert betti_table(I).entries == expected

    def test_battery_and_oracles_build_one_gin_table(self, monkeypatch):
        # one coordinate workspace on I (the battery's table) and one on
        # gin(I) (the oracle's homology of it); the numerators of each
        # strand of either are built once across the two
        I = parse_ideal(REFERENCE["ext4"])
        G = gin(I, seed=0)[0].to_ideal()
        built = []
        init = HomologyWorkspace.__init__

        def counting(self, ideal, seq=None):
            built.append((ideal, seq))
            init(self, ideal, seq)

        monkeypatch.setattr(HomologyWorkspace, "__init__", counting)
        modules = module_builds(monkeypatch)
        battery(I, seed=0)
        oracle_equivalences(I, seed=0)
        assert [X for X, seq in built if seq is None] == [I, G]
        strands = sum(
            len(state[4]) for X in (I, G) for key, state in X._memo.items()
            if key[0] == "workspace"
        )
        assert len(modules) == strands > 0

    @pytest.mark.parametrize("name", ["cancel", "ext4"])
    def test_battery_builds_no_workspace_on_gin(self, name, monkeypatch):
        # the statements read the table of gin(I) from the closed forms, so
        # the only coordinate workspace the battery builds is the one of
        # I: on its regular section over S, on I itself over E
        I = parse_ideal(REFERENCE[name])
        built = []
        init = HomologyWorkspace.__init__

        def counting(self, ideal, seq=None):
            if seq is None:
                built.append(ideal)
            init(self, ideal, seq)

        monkeypatch.setattr(HomologyWorkspace, "__init__", counting)
        battery(I, seed=0)
        want = I if I.ring.is_exterior else _regular_section(I)
        assert len(built) == 1 and built[0] is want

    def test_regular_section_is_built_once(self, monkeypatch):
        # x4 divides no generator: every Koszul table of I, and of gin(I),
        # runs on a section in three variables
        I = parse_ideal("ring poly 4 QQ\nx1^2\nx2^2\nx1*x2*x3^2\nx3^5\n")
        assert _regular_section(I) is _regular_section(I)
        assert _regular_section(I).ring.n == 3
        built = []
        init = HomologyWorkspace.__init__

        def counting(self, ideal, seq=None):
            if seq is None:
                built.append((ideal.ring, ideal.generators))
            init(self, ideal, seq)

        monkeypatch.setattr(HomologyWorkspace, "__init__", counting)
        battery(I, seed=0)
        oracle_equivalences(I, seed=0)
        assert built and len(built) == len(set(built))

    def test_window_error_stores_nothing(self, monkeypatch):
        # strand 1 holds the quadrics, so reg_bound=1 certifies a wrong
        # window: each such call fails, no table is kept for it, and the
        # right window then reads the ranks the workspace kept, eliminating
        # nothing when it is read again
        I = parse_ideal("ring poly 3 QQ\nx1^2\nx2^2\n")
        for _ in range(2):
            with pytest.raises(WindowError, match="strand 1 is nonzero at i=1"):
                koszul_betti(I, reg_bound=1)
        table = koszul_betti(I)
        built = []
        eliminate = HomologyWorkspace._eliminate

        def counting(self, *args):
            built.append(args)
            return eliminate(self, *args)

        monkeypatch.setattr(HomologyWorkspace, "_eliminate", counting)
        assert koszul_betti(I) == table and built == []
        assert table.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_nothing_dropped_is_remembered(self, monkeypatch):
        # x3 divides a generator, so the section is I itself; that answer
        # is stored too, and later tables do not look for a section again
        I = parse_ideal("ring poly 3 QQ\nx1^2\nx3^2\n")
        calls = []
        drop = betti._drop_regular_variables

        def counting(ideal):
            calls.append(ideal)
            return drop(ideal)

        monkeypatch.setattr(betti, "_drop_regular_variables", counting)
        for reg_bound in (None, None, 3, 4):
            koszul_betti(I, reg_bound=reg_bound)
        assert _regular_section(I) is I
        assert calls == [I]


class TestPredicates:
    def test_regularity_examples(self, strand4):
        assert regularity(parse_ideal("ring poly 2 QQ\nx1\nx2\n")) == 1
        assert regularity(parse_ideal("ring poly 2 QQ\nx1*x2\n")) == 2
        assert regularity(strand4, seed=0) == 5

    def test_zero_regularity_raises(self):
        with pytest.raises(ValueError):
            regularity(Ideal.zero(polynomial_ring(2)))

    def test_linear_resolution(self, strand4):
        assert has_linear_resolution(parse_ideal("ring poly 2 QQ\nx1\nx2\n"))
        assert has_linear_resolution(parse_ideal("ring poly 2 QQ\nx1*x2\n"))
        assert not has_linear_resolution(strand4, seed=0)
        assert has_linear_resolution(Ideal.zero(polynomial_ring(2)))

    def test_componentwise_linear(self, strand4):
        assert is_componentwise_linear(parse_ideal("ring poly 2 QQ\nx1\nx2^2\n"))
        assert not is_componentwise_linear(strand4, seed=0)

    def test_componentwise_linear_exterior(self):
        assert is_componentwise_linear(parse_ideal("ring ext 3 QQ\ne1\ne2*e3\n"))
        assert not is_componentwise_linear(
            parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n"), seed=0
        )

    def test_lex_is_componentwise_linear(self, staircase3):
        from ginlab.ideals import lex_ideal

        L = lex_ideal(staircase3)
        assert is_componentwise_linear(L.to_ideal(), seed=0)

    def test_dominance_poly(self, staircase3, cancel4, strand4):
        for I in (staircase3, cancel4, strand4):
            J, _ = gin(I, seed=0)
            a = koszul_betti(I, reg_bound=J.max_gen_degree())
            b = koszul_betti(J.to_ideal(), reg_bound=J.max_gen_degree())
            for (i, j), v in a.entries.items():
                assert v <= b.get(i, j)


class TestTableType:
    def test_conversion_round_trip(self, cancel4):
        T = koszul_betti(cancel4)
        back = T.as_convention(IDEAL).as_convention(QUOTIENT)
        assert back.entries == T.entries
        assert back.window == T.window

    def test_window_moves_with_entries(self, cancel4):
        # beta_{i,j}(I) = beta_{i+1,j}(S/I): one strand up, one step down
        T = koszul_betti(cancel4)
        assert T.window == {"strand_max": 3, "i_max": 4}
        view = T.as_convention(IDEAL)
        assert view.window == {"strand_max": 4, "i_max": 3}
        assert view.max_strand() == view.window["strand_max"]
        assert max(i for i, _ in view.entries) <= view.window["i_max"]
        back = view.as_convention(QUOTIENT).as_convention(IDEAL)
        assert back == view and back.window == view.window

    @pytest.mark.parametrize("name", ["ideals", "Ideal"])
    def test_unknown_convention_raises(self, name):
        T = koszul_betti(parse_ideal("ring poly 2 QQ\nx1^2\nx1*x2\n"))
        with pytest.raises(ValueError, match="unknown Betti convention"):
            T.as_convention(name)

    def test_strand_view(self, cancel4):
        T = koszul_betti(cancel4).as_convention(IDEAL)
        assert T.strand(3) == {0: 6, 1: 6, 2: 1}
        assert T.max_strand() == 4

    def test_render_contains_totals(self, cancel4):
        text = koszul_betti(cancel4).render()
        assert "total:" in text

    def test_json_sorted(self, cancel4):
        data = koszul_betti(cancel4).to_json()
        pairs = [(e["i"], e["j"]) for e in data["entries"]]
        assert pairs == sorted(pairs)
        assert data["ring"] == {"kind": "poly", "n": 4}


def test_the_convention_has_one_home():
    # every table is built, cached and compared as beta(R/I): only betti.py
    # (regularity, has_linear_resolution) and cli.py (--convention) name
    # IDEAL or re-index a table with as_convention
    package = Path(betti.__file__).parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            for attr in ("id", "name", "attr"):
                if getattr(node, attr, None) in ("IDEAL", "as_convention"):
                    users.add(path.name)
    assert users == {"betti.py", "cli.py"}


def test_gin_tables_come_from_the_closed_form():
    # stable_table is the one route to the table of a gin J: only the
    # oracles compute the homology of J.to_ideal()
    package = Path(betti.__file__).parent
    homology = ("betti_table", "koszul_betti", "cartan_betti")
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in homology
                and node.args
                and isinstance(node.args[0], ast.Call)
                and getattr(node.args[0].func, "attr", None) == "to_ideal"
            ):
                users.add(path.name)
    assert users == {"oracles.py"}
