import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import strategies as st

from ginlab import groebner, ideals, rings
from ginlab.corpus import ACCEPTANCE_SPECS, generate
from ginlab.groebner import (
    PRIME_BOUND,
    _initial_ideal_degreewise,
    _scan_plan,
    buchberger,
    gin,
    initial_ideal,
    initial_submodule,
)
from ginlab.ideals import (
    Ideal,
    _poly_mul,
    hilbert_numerator,
    is_strongly_stable,
    variable_multiples,
)
from ginlab.linalg import IntRank, ModRank
from ginlab.oracles import oracle_equivalences
from ginlab.parsing import parse_ideal
from ginlab.rigidity import RigidityContext, battery
from ginlab.rings import (
    DEGREVLEX,
    EXT,
    LEX,
    POLY,
    TERM_ORDERS,
    BadPrime,
    Element,
    GenericityError,
    GenericSequence,
    apply_linear_change,
    certified_draw,
    change_coordinates,
    exterior_ring,
    polynomial_ring,
    random_unitriangular_matrix_mod,
    random_prime,
    render_monomial,
)

from conftest import (
    CANCEL_GIN,
    COEFF_BOUND,
    STAIRCASE_3,
    STAIRCASE_GIN,
    ext,
    load_perfbench,
    random_invertible_matrix,
)


def initial_orders(I):
    """The orders whose in(I) the Ideal.memo of I holds."""
    return {key[1] for key in I._memo if key[0] == "initial"}


def gens_as_strings(J):
    return [render_monomial(J.ring, m) for m in J.gens]


class TestBuchberger:
    def test_monomial_input_fixed(self):
        I = parse_ideal("ring poly 2 QQ\nx1\nx2\n")
        gb = buchberger(I)
        assert [g.terms for g in gb.elements] == [{(0, 1): 1}, {(1, 0): 1}]

    def test_principal(self):
        I = parse_ideal("ring poly 2 QQ\nx1^2 + x2^2\n")
        gb = buchberger(I)
        assert len(gb.elements) == 1
        assert gb.elements[0].leading_monomial() == (2, 0)

    def test_reduced_property(self):
        I = parse_ideal("ring poly 3 QQ\nx1^2 - x2*x3\nx1*x2 - x3^2\n")
        gb = buchberger(I)
        lms = [g.leading_monomial() for g in gb.elements]
        from ginlab.rings import monomial_divides

        for g in gb.elements:
            assert g.leading_coefficient() == 1
            for m in g.terms:
                others = [
                    lm for lm in lms if lm != g.leading_monomial()
                ]
                assert not any(monomial_divides(lm, m) for lm in others)

    def test_sres_classic(self):
        # twisted-cubic style kernel: the classic two-binomial example
        I = parse_ideal("ring poly 3 QQ\nx1^2 - x2*x3\nx1*x2 - x3^2\n")
        gb = buchberger(I)
        assert len(gb.elements) == 3


class TestInitialSubmodule:
    def test_hand_checked_submodule_of_s2(self):
        # N in S^2, S = QQ[x1, x2], spanned by g1 = x1 e1 + x2 e2 and
        # g2 = x2 e1.  The leads x1 e1 and x2 e1 are coprime, yet their
        # S-pair x2 g1 - x1 g2 = x2^2 e2 is new: the coprime criterion holds
        # for ideals only.  So in(N) = (x1, x2) e1 + (x2^2) e2
        S = polynomial_ring(2)
        gens = [{(0, (1, 0)): 1, (1, (0, 1)): 1}, {(0, (0, 1)): 1}]
        J1, J2 = initial_submodule(S, gens, 2)
        assert J1.gens == ((1, 0), (0, 1))
        assert J2.gens == ((0, 2),)
        # g1, g2 have no syzygy, so N is free: dim N_d = 2 dim S_{d-1} = 2d
        assert [J1.dim(d) + J2.dim(d) for d in range(6)] == [0, 2, 4, 6, 8, 10]
        assert hilbert_numerator(J1) == [1, -2, 1]
        assert hilbert_numerator(J2) == [1, 0, -1]

    def test_fraction_free_leads(self):
        # g1 = 2 x1 e1 + 3 x2 e2 and g2 = 3 x1 e1 + x2 e1 share the lead
        # x1 e1.  Their S-pair 3 g1 - 2 g2 = -2 x2 e1 + 9 x2 e2 has the lead
        # x2 e1 (the lower position wins the tie), and the S-pair of g1 and
        # that element, with the multipliers -1 and -1 after the gcd 2 of
        # the leads, is -9 x1 x2 e2 - 3 x2^2 e2.  N is free on g1, g2, so
        # dim N_d = 2d = (d + 1) + (d - 1) and nothing more is new
        S = polynomial_ring(2)
        gens = [
            {(0, (1, 0)): 2, (1, (0, 1)): 3},
            {(0, (1, 0)): 3, (0, (0, 1)): 1},
        ]
        J1, J2 = initial_submodule(S, gens, 2)
        assert (J1.gens, J2.gens) == (((1, 0), (0, 1)), ((1, 1),))


def _random_submodule(rng, S, m, prime):
    """Homogeneous generators of a submodule of F_p[y]^m, terms
    {(position, monomial): nonzero residue}: a few random ones of degree 1
    or 2, a combination of two of the same degree and a variable times a
    linear one, so that some S-pairs reduce to zero."""
    gens = []
    for _ in range(rng.randint(1, 5)):
        monos = S.monomials(rng.randint(1, 2))
        gens.append({
            (rng.randrange(m), rng.choice(monos)): rng.randrange(1, prime)
            for _ in range(rng.randint(1, 4))
        })
    f, g = rng.choice(gens), rng.choice(gens)
    if sum(next(iter(f))[1]) == sum(next(iter(g))[1]):
        a, b = rng.randrange(1, prime), rng.randrange(1, prime)
        combo = {t: a * c for t, c in f.items()}
        for t, c in g.items():
            combo[t] = combo.get(t, 0) + b * c
        combo = {t: c % prime for t, c in combo.items() if c % prime}
        if combo:
            gens.append(combo)
    linear = [f for f in gens if sum(next(iter(f))[1]) == 1]
    if linear:
        y = rng.choice(S.monomials(1))
        gens.append({
            (u, rings.monomial_mul(mono, y)): c
            for (u, mono), c in rng.choice(linear).items()
        })
    return gens


@pytest.mark.parametrize("prime", [5, 101])
def test_submodule_hilbert_function_mod_p(prime):
    # in(N) over F_p from the Buchberger loop mod p: in each degree d its
    # dimension is the rank mod p of N_d, spanned by the monomial shifts
    # of the generators, on seeded random submodules of F_p[y_1..y_n]^m
    rng = random.Random(f"submodules mod {prime}")
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        S = polynomial_ring(n)
        gens = _random_submodule(rng, S, m, prime)
        J = initial_submodule(S, gens, m, prime)
        assert len(J) == m
        key = groebner._term_key(rings.order_key(S))
        basis, leads = groebner._groebner(gens, key, m == 1, prime)
        assert all(f[lead] == 1 for f, lead in zip(basis, leads))
        assert all(0 < c < prime for f in basis for c in f.values())
        for d in range(5):
            eng, columns = ModRank(prime), {}
            for g in gens:
                e = sum(next(iter(g))[1])
                for shift in S.monomials(d - e) if d >= e else ():
                    eng.add({
                        columns.setdefault(
                            (u, rings.monomial_mul(mono, shift)), len(columns)
                        ): c
                        for (u, mono), c in g.items()
                    })
            assert sum(Ju.dim(d) for Ju in J) == eng.rank, (gens, d)


class TestInitialIdeal:
    def test_principal(self):
        I = parse_ideal("ring poly 2 QQ\nx1^2 + x2^2\n")
        assert initial_ideal(I).gens == ((2, 0),)

    def test_monomial_fixed_point(self):
        I = parse_ideal("ring poly 3 QQ\nx1*x3\nx2^2\n")
        J = initial_ideal(I)
        assert initial_ideal(J.to_ideal()) == J

    def test_exterior_revlex_largest(self):
        I = parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n")
        J = initial_ideal(I)
        assert ext(4, 0, 1) in J.gens

    def test_zero(self):
        ring = polynomial_ring(2)
        assert initial_ideal(Ideal.zero(ring)).is_zero()

    def test_hilbert_preserved(self):
        I = parse_ideal("ring poly 3 QQ\nx1^2 + x2*x3\nx2^2 - x1*x3\n")
        J = initial_ideal(I)
        for d in range(7):
            assert J.dim(d) == I.dim_piece(d)


class TestGin:
    def test_staircase(self, staircase3):
        J, cert = gin(staircase3, seed=0)
        assert gens_as_strings(J) == STAIRCASE_GIN
        assert cert.strongly_stable and cert.trials == 2

    def test_cancel(self, cancel4):
        J, _ = gin(cancel4, seed=0)
        assert gens_as_strings(J) == CANCEL_GIN

    def test_strand_ideal_first_betti(self, strand4):
        # gin gains one extra degree-4 and one degree-5 generator
        J, _ = gin(strand4, seed=0)
        degrees = sorted(sum(m) for m in J.gens)
        assert degrees == [3, 3, 3, 4, 5]

    def test_principal_linear(self):
        I = parse_ideal("ring poly 2 QQ\nx1\n")
        J, _ = gin(I, seed=0)
        assert J.gens == ((1, 0),)

    def test_zero(self):
        ring = polynomial_ring(2)
        J, cert = gin(Ideal.zero(ring), seed=0)
        assert J.is_zero() and cert.strongly_stable

    def test_coeff_bound_below_one_raises(self, staircase3):
        for bound in (0, -3):
            with pytest.raises(ValueError, match="coefficient bound"):
                gin(staircase3, coeff_bound=bound)

    def test_seed_determinism(self, staircase3):
        a = gin(staircase3, seed=7)
        b = gin(staircase3, seed=7)
        assert a[0] == b[0] and a[1] == b[1]

    def test_routes_agree(self):
        rng = random.Random(4)
        ring = polynomial_ring(3)
        for _ in range(4):
            gens = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 3)
                terms = {}
                for m in ring.monomials(d):
                    c = rng.randint(-2, 2)
                    if c:
                        terms[m] = c
                if terms:
                    gens.append(Element(ring, terms))
            if not gens:
                continue
            I = Ideal(ring, gens)
            if I.contains_unit():
                continue
            J, cert = gin(I, seed=3)
            assert _buchberger_trials(I, cert) == [J] * cert.trials
        # and the degrevlex gins of the polynomial acceptance corpus
        inputs = [
            I for spec in ACCEPTANCE_SPECS if spec.kind == POLY
            for I in generate(spec)
        ]
        assert len(inputs) == 64
        for I in inputs:
            J, cert = gin(I)
            assert _buchberger_trials(I, cert) == [J] * cert.trials, I

    def test_gin_idempotent(self, staircase3):
        J, _ = gin(staircase3, seed=0)
        JJ, _ = gin(J.to_ideal(), seed=1)
        assert JJ == J

    def test_hilbert_preserved(self, staircase3):
        J, _ = gin(staircase3, seed=0)
        for d in range(8):
            assert J.dim(d) == staircase3.dim_piece(d)

    def test_strongly_stable_certificate(self, cancel4):
        J, cert = gin(cancel4, seed=0)
        assert is_strongly_stable(J)
        assert len(cert.matrices) == cert.trials

    def test_truncated_scan(self, staircase3):
        J, cert = gin(staircase3, seed=0, max_scan_degree=4)
        assert cert.truncated_at == 4
        full, _ = gin(staircase3, seed=0)
        want = tuple(m for m in full.gens if sum(m) <= 4)
        assert J.gens == want

    def test_gin_under_lex(self, staircase3):
        J, cert = gin(staircase3, order="lex", seed=0)
        assert cert.order == "lex"
        assert is_strongly_stable(J)
        for d in range(8):
            assert J.dim(d) == staircase3.dim_piece(d)

    def test_trials_validation(self, staircase3):
        with pytest.raises(ValueError):
            gin(staircase3, trials=1)


class TestEscalation:
    """The escalation and failure paths of gin's certified draws."""

    def test_one_failed_round_doubles_the_bound(self, monkeypatch):
        stable = groebner.is_strongly_stable
        verdicts = []

        def unstable_once(J):
            verdicts.append(bool(verdicts) and stable(J))
            return verdicts[-1]

        monkeypatch.setattr(groebner, "is_strongly_stable", unstable_once)
        drawn = []
        loop = groebner.certified_draw

        def recorded(ring, seed, bound, label, tags, compute, **kwargs):
            def recording(seq):
                drawn.append(seq)
                return compute(seq)

            return loop(ring, seed, bound, label, tags, recording, **kwargs)

        monkeypatch.setattr(groebner, "certified_draw", recorded)
        I = parse_ideal(STAIRCASE_3)  # fresh: no memo
        J, cert = gin(I, seed=5)
        assert verdicts == [False, True]
        bound = PRIME_BOUND << 1
        assert (cert.escalations, cert.coeff_bound) == (1, bound)
        p = random_prime(random.Random(f"gin-prime:5:{bound}"), bound)
        assert bound <= p < 2 * bound
        assert cert.matrices == tuple(
            (p, tuple(map(tuple, random_unitriangular_matrix_mod(
                random.Random(f"gin:5:1:{t}:{bound}"), 3, p
            ))))
            for t in range(2)
        )
        # each trial of each round ran on the one draw of rings.certified_draw
        assert drawn == [
            GenericSequence.draw(I.ring, 5, f"5:{e}:{t}", PRIME_BOUND << e, "gin")
            for e in range(2)
            for t in range(2)
        ]
        assert cert.matrices == tuple((s.prime, s.rows) for s in drawn[2:])
        assert gens_as_strings(J) == STAIRCASE_GIN

    def test_unstable_results_raise_after_five_rounds(self, monkeypatch):
        bounds, primes = [], []
        prime, draw = rings.random_prime, rings.random_unitriangular_matrix_mod

        def recorded_prime(rng, lo):
            bounds.append(lo)
            return prime(rng, lo)

        def recorded(rng, n, p):
            primes.append(p)
            return draw(rng, n, p)

        monkeypatch.setattr(rings, "random_prime", recorded_prime)
        monkeypatch.setattr(rings, "random_unitriangular_matrix_mod", recorded)
        monkeypatch.setattr(groebner, "is_strongly_stable", lambda J: False)
        with pytest.raises(GenericityError) as err:
            gin(parse_ideal(STAIRCASE_3), trials=3)
        # the message is part of the CLI's output and stays as it is
        assert str(err.value) == (
            "genericity not reached after escalation: "
            + "; ".join(["result not strongly stable"] * 5)
        )
        # one prime per round, shared by the round's three trials
        assert bounds == [PRIME_BOUND << e for e in range(5)]
        assert len(set(primes)) == 5
        for e, p in enumerate(primes[::3]):
            assert primes[3 * e:3 * e + 3] == [p] * 3
            assert PRIME_BOUND << e <= p < PRIME_BOUND << (e + 1)

    def test_disagreeing_trials_raise(self, monkeypatch):
        scan = groebner._initial_ideal_degreewise
        calls = []

        def second_trial_differs(
            ring, gens, order, numerator, max_scan_degree=None, dims=None,
            engine=IntRank,
        ):
            J, cut = scan(
                ring, gens, order, numerator, max_scan_degree, dims, engine
            )
            calls.append(J)
            if len(calls) % 2:
                return J, cut
            return groebner.MonomialIdeal(ring, J.gens[:-1]), cut

        monkeypatch.setattr(
            groebner, "_initial_ideal_degreewise", second_trial_differs
        )
        with pytest.raises(GenericityError, match="trials disagree"):
            gin(parse_ideal(STAIRCASE_3))
        assert len(calls) == 10

    def test_error_class_is_shared(self):
        import ginlab
        from ginlab import rings

        assert groebner.GenericityError is rings.GenericityError
        assert ginlab.GenericityError is rings.GenericityError


class TestGinMemo:
    # the fifth draw of the three-variable acceptance corpus: three dense
    # quadrics, a cubic monomial and a linear form
    DENSE = (
        "ring poly 3 QQ\n3*x2^2 + x2*x3\nx2^2 + 3*x1*x3\n"
        "x1^2 - 4*x1*x2 - 2*x2^2 - x1*x3 + x3^2\nx1*x2^2\nx3\n"
    )

    @pytest.fixture
    def scans(self, monkeypatch):
        """(order, generator count) of every initial-ideal scan gin runs."""
        calls = []
        scan = groebner._initial_ideal_degreewise

        def counted(
            ring, gens, order, numerator, max_scan_degree=None, dims=None,
            engine=IntRank,
        ):
            calls.append((order, len(gens)))
            return scan(
                ring, gens, order, numerator, max_scan_degree, dims, engine
            )

        monkeypatch.setattr(groebner, "_initial_ideal_degreewise", counted)
        return calls

    def test_battery_and_oracles_share_one_gin(self, scans):
        I = parse_ideal(self.DENSE)
        full = (DEGREVLEX, len(I.generators))
        battery(I, seed=0)
        _, cert = gin(I, seed=0)
        assert scans.count(full) == cert.trials * (cert.escalations + 1) == 2
        oracle_equivalences(I, seed=0)
        assert scans.count(full) == 2

    def test_other_arguments_or_ideal_recompute(self, scans):
        I = parse_ideal(self.DENSE)
        J, cert = gin(I, seed=0)
        assert gin(I, seed=0) == (J, cert) and len(scans) == 2
        for kwargs in ({"seed": 1}, {"order": LEX}, {"max_scan_degree": 3}):
            before = len(scans)
            gin(I, **kwargs)
            assert len(scans) > before, kwargs
        before = len(scans)
        assert gin(Ideal(I.ring, I.generators), seed=0)[0] == J
        assert len(scans) == before + 2

    def test_errors_are_not_stored(self, staircase3):
        with pytest.raises(ValueError):
            gin(staircase3, trials=1)
        assert not [key for key in staircase3._memo if key[0] == "gin"]

    def test_battery_and_oracles_run_buchberger_once(self, monkeypatch):
        # in_revlex(I) is read by the regular section of the Betti table,
        # by Lex(I) and by the Hilbert stop of every gin of I; one memo
        # serves, and the section's in_revlex is seeded from it.  The
        # component gin of I_<2> scans the subideal of the generators of
        # degree <= 2, which needs its own run
        calls = []
        run = groebner.buchberger

        def counted(ideal, order=None):
            calls.append((ideal.generators, order))
            return run(ideal, order)

        monkeypatch.setattr(groebner, "buchberger", counted)
        I = parse_ideal(self.DENSE)
        sub = tuple(g for g in I.generators if g.degree() <= 2)
        battery(I, seed=0)
        oracle_equivalences(I, seed=0)
        assert len(calls) == 2
        assert (I.generators, DEGREVLEX) in calls
        assert (sub, DEGREVLEX) in calls

    def test_initial_ideal_memo_keys_the_resolved_order(self):
        I = parse_ideal(self.DENSE)
        J = initial_ideal(I)
        assert initial_ideal(I, DEGREVLEX) is J
        assert initial_orders(I) == {DEGREVLEX}
        initial_ideal(I, LEX)
        assert initial_orders(I) == {DEGREVLEX, LEX}
        assert initial_ideal(Ideal(I.ring, I.generators)) is not J


class TestGinExterior:
    def test_principal_two_form(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        J, _ = gin(I, seed=0)
        assert J.gens == (ext(3, 0, 1),)

    def test_last_variable(self):
        I = parse_ideal("ring ext 3 QQ\ne3\n")
        J, _ = gin(I, seed=0)
        assert J.gens == (ext(3, 0),)

    def test_zero(self):
        ring = exterior_ring(3)
        J, _ = gin(Ideal.zero(ring), seed=0)
        assert J.is_zero()

    def test_mixed(self):
        I = parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n")
        J, _ = gin(I, seed=0)
        assert is_strongly_stable(J)
        for d in range(5):
            assert J.dim(d) == I.dim_piece(d)


class TestExteriorInitialIdeal:
    """Over E, in(I) is read off the pivots of the graded pieces I_0..I_n."""

    @staticmethod
    def numerator(I):
        # N(t) = HS_{E/I}(t) (1-t)^n from the dimensions of the Rref pieces
        n = I.ring.n
        series = [I.ring.dim(d) - I.dim_piece(d) for d in range(n + 1)]
        return _poly_mul(series, [(-1) ** k * comb(n, k) for k in range(n + 1)])

    # in_revlex differs from in_lex on these, so the ring's order matters
    ORDER_DEPENDENT = (
        "ring ext 4 QQ\ne1*e4 + e2*e3\n",
        "ring ext 4 QQ lex\ne1*e4 + e2*e3\ne1*e2 - e3*e4\n",
        "ring ext 5 QQ deglex\ne1*e5 + e2*e4\ne2*e3 - e1*e4 + 2*e3*e5\n",
    )

    def test_pivots_match_the_full_degreewise_scan(self):
        # the degreewise scan with every degree eliminated is the oracle
        exterior = [
            ideal for spec in ACCEPTANCE_SPECS if spec.kind == EXT
            for ideal in generate(spec)
        ]
        extra = [parse_ideal(text) for text in self.ORDER_DEPENDENT]
        assert len(exterior) == 36
        for ideal in exterior + extra:
            ring, gens = ideal.ring, ideal.generators
            numerator = self.numerator(ideal)
            found = set()
            for order in TERM_ORDERS:
                scanned, cut = _initial_ideal_degreewise(
                    ring, gens, order, numerator, None
                )
                assert cut is None
                result = initial_ideal(Ideal(ring, gens), order)
                assert result == scanned, (gens, order)
                found.add(result)
            assert len(found) == 2 or ideal not in extra

    def test_ring_order_reads_the_pieces(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the ring's order eliminated again")

        monkeypatch.setattr(groebner, "_degree_pivot_monomials", refused)
        for order in TERM_ORDERS:
            I = parse_ideal(f"ring ext 4 QQ {order}\ne1*e2 + e3*e4\ne2*e3\n")
            assert initial_ideal(I).gens
            assert set(I._pieces) == set(range(5))

    def test_gin_leaves_in_revlex_in_the_memo(self):
        I = parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n")
        assert not initial_orders(I)
        J, _ = gin(I, seed=0)
        assert initial_orders(I) == {DEGREVLEX}
        for d in range(5):
            revlex = I._memo[("initial", DEGREVLEX)]
            assert revlex.dim(d) == J.dim(d) == I.dim_piece(d)


def _buchberger_trials(I, cert):
    """The Buchberger initial ideal over QQ of I in each certified trial's
    coordinates: the trial's matrix mod p, lifted to integers in [0, p)."""
    return [
        initial_ideal(
            Ideal(I.ring, [apply_linear_change(g, rows) for g in I.generators])
        )
        for _, rows in cert.matrices
    ]


def _integer_gin(ideal, order, max_scan_degree=None, seed=0):
    """(gin, truncated_at) from integer trials over QQ: matrices with
    entries in [-COEFF_BOUND, COEFF_BOUND] and exact integer elimination,
    with gin's scan plan, escalation loop and strong-stability check."""
    ring = ideal.ring
    numerator, dims = _scan_plan(ideal, max_scan_degree)

    def trial(seq):
        # the integer matrix of the draw's key and bound; its rows mod p
        # go unused
        rng = random.Random(f"gin:{seq.key}:{seq.bound}")
        mat = random_invertible_matrix(rng, ring.n, seq.bound)
        gens = change_coordinates(ring, ideal.generators, mat)
        return _initial_ideal_degreewise(
            ring, gens, order, numerator, max_scan_degree, dims
        )

    runs, _, _ = certified_draw(
        ring, seed, COEFF_BOUND, "gin", range(2), trial,
        check=lambda run: (
            None if is_strongly_stable(run[0]) else "result not strongly stable"
        ),
    )
    return runs[0]


def test_integer_trials_give_the_same_gins():
    # the integer trial is the reference of the trials mod p: the same
    # gin and truncation on the 100 acceptance ideals, under degrevlex
    # and under lex at scan_cut
    count = 0
    for spec in ACCEPTANCE_SPECS:
        for ideal in generate(spec):
            cut = RigidityContext(ideal, seed=0).scan_cut
            for order, up_to in ((DEGREVLEX, None), (LEX, cut)):
                J, cert = gin(ideal, order=order, max_scan_degree=up_to)
                want = _integer_gin(ideal, order, up_to)
                assert (J, cert.truncated_at) == want, (ideal, order)
                count += 1
    assert count == 200


def test_buchberger_route_reproduces_staircase_gin(staircase3):
    _, cert = gin(staircase3, seed=0)
    for J in _buchberger_trials(staircase3, cert):
        assert gens_as_strings(J) == STAIRCASE_GIN


def dense_quadrics_q4():
    """Three dense quadrics in four variables, coefficients in [-4, 4]."""
    ring = polynomial_ring(4)
    rng = random.Random("q4")
    return Ideal(ring, [
        Element(ring, {m: rng.randint(-4, 4) for m in ring.monomials(2)})
        for _ in range(3)
    ])


class TestKnownRanks:
    """The trials of one gin share dim I_d as their target ranks."""

    @pytest.fixture
    def fed(self, monkeypatch):
        """[degree, rows built, rows fed to ModRank] per elimination, one
        list per trial scan."""
        trials = []

        class Counting(groebner.ModRank):
            def add(self, row):
                trials[-1][-1][2] += 1
                return super().add(row)

        rows, scan = ideals.degree_rows, groebner._initial_ideal_degreewise

        def built(ring, gens, d, index):
            out = list(rows(ring, gens, d, index))
            trials[-1].append([d, len(out), 0])
            return out

        def counted(*args):
            trials.append([])
            return scan(*args)

        monkeypatch.setattr(groebner, "ModRank", Counting)
        monkeypatch.setattr(ideals, "degree_rows", built)
        monkeypatch.setattr(groebner, "_initial_ideal_degreewise", counted)
        return trials

    def test_second_trial_feeds_fewer_rows(self, fed):
        # dim I_d is known before the first trial, from the numerator of
        # in_revlex(I), so every trial stops at that rank or skips the
        # degree
        gin(dense_quadrics_q4())
        assert len(fed) == 2
        for trial in fed:
            assert all(n <= rows for _, rows, n in trial)
            assert sum(n for *_, n in trial) < sum(r for _, r, _ in trial)

    # the degrees whose one-variable multiples already fill dim I_d: none
    # for the staircase, whose gin adds generators in every degree up to
    # its top, where the Hilbert stop ends the scan
    FILLED = {
        STAIRCASE_3: set(),
        "ring ext 5 QQ\ne1*e2\ne3*e4\ne2*e3*e5\n": {4, 5},
        "ring poly 2 QQ\nx1^2\nx2^5\n": {3, 4},
    }

    @pytest.mark.parametrize("text", list(FILLED))
    def test_monomial_input_skips_filled_degrees(self, monkeypatch, text):
        I = parse_ideal(text)
        ring = I.ring
        eliminated = []
        pivots = groebner._degree_pivot_monomials

        def recorded(ring, gens, d, key, target=None, engine=IntRank):
            eliminated.append(d)
            return pivots(ring, gens, d, key, target, engine)

        monkeypatch.setattr(groebner, "_degree_pivot_monomials", recorded)
        J, cert = gin(I)
        if ring.is_exterior:
            last = ring.n
        else:
            # the Hilbert stop: the candidate first has the numerator of
            # I once it holds every generator of J
            last = J.max_gen_degree()
        filled = {
            d for d in range(I.min_degree() + 1, last + 1)
            if len(variable_multiples(ring, J.monomials(d - 1)))
            == I.dim_piece(d)
        }
        scanned = set(range(I.min_degree(), last + 1))
        assert filled == self.FILLED[text] and filled < scanned
        assert eliminated == sorted(scanned - filled) * cert.trials

    def test_wrong_target_fails_every_round(self, monkeypatch):
        # a rank mod p below dim I_d is a bad prime or point for the
        # round; a target no trial can reach fails all five
        quotient = groebner.quotient_dim_from_numerator

        def one_short(num, n, d):
            return quotient(num, n, d) - 1  # the seed reads dim I_d + 1

        monkeypatch.setattr(groebner, "quotient_dim_from_numerator", one_short)
        with pytest.raises(GenericityError) as err:
            gin(dense_quadrics_q4(), order=LEX, max_scan_degree=3)
        failures = str(err.value).split(": ", 1)[1].split("; ")
        assert len(failures) == 5
        for failure in failures:
            assert failure.startswith("prime ")
            assert failure.endswith(": degree 2 has rank 3, below dim I_2 = 4")

    def test_targets_leave_every_trial_scan_unchanged(self):
        # the full elimination of every degree in the coordinates of the
        # drawn rows is the oracle: with the shared targets and skips each
        # certified trial finds the same initial ideal and cut, and so
        # does gin, under degrevlex and under lex at scan_cut
        for spec in ACCEPTANCE_SPECS:
            for ideal in generate(spec):
                ring = ideal.ring
                cut = RigidityContext(ideal, seed=0).scan_cut
                for order, up_to in ((DEGREVLEX, None), (LEX, cut)):
                    J, cert = gin(ideal, order=order, max_scan_degree=up_to)
                    numerator, dims = _scan_plan(ideal, up_to)
                    primitive = [g.normalized_integer() for g in ideal.generators]
                    for p, rows in cert.matrices:
                        gens = change_coordinates(ring, primitive, rows, p)
                        engine = partial(ModRank, p)
                        full = _initial_ideal_degreewise(
                            ring, gens, order, numerator, up_to, engine=engine
                        )
                        shared = _initial_ideal_degreewise(
                            ring, gens, order, numerator, up_to, dims, engine
                        )
                        assert shared == full, (ideal.generators, order)
                        assert full == (J, cert.truncated_at), (
                            ideal.generators, order
                        )


class TestModularTrials:
    """Bad and tiny primes fail rounds; the certificate bounds a trial."""

    BAD_AT_3 = "ring poly 2 QQ\nx1^2 + 3*x2^2\nx1^2\n"

    def test_bad_prime_fails_its_round(self, monkeypatch):
        # mod 3 the two generators agree, so degree 2 stops at rank 1 in
        # every trial of a round with p = 3; coefficient bound 2 makes
        # round 0 draw its odd prime from [2, 4)
        failures = []

        def recorded(ring, seed, bound, label, tags, compute, key=None,
                     check=None):
            def recording(seq):
                try:
                    return compute(seq)
                except BadPrime as exc:
                    failures.append(str(exc))
                    raise

            return certified_draw(
                ring, seed, bound, label, tags, recording, key, check
            )

        monkeypatch.setattr(groebner, "certified_draw", recorded)
        J, cert = gin(parse_ideal(self.BAD_AT_3), coeff_bound=2)
        assert failures[0] == "prime 3: degree 2 has rank 1, below dim I_2 = 2"
        assert cert.escalations >= 1
        assert J == gin(parse_ideal(self.BAD_AT_3))[0]

    def test_one_prime_per_ring(self, monkeypatch):
        # a round's prime depends on seed and bound alone: the gins over
        # one ring share it, and a freshly parsed input draws it anew
        drawn = []
        prime = rings.random_prime

        def recorded(rng, lo):
            drawn.append(lo)
            return prime(rng, lo)

        monkeypatch.setattr(rings, "random_prime", recorded)
        I = parse_ideal(STAIRCASE_3)
        certs = [
            gin(I)[1], gin(I, order=LEX)[1],
            gin(Ideal(I.ring, I.generators[:2]))[1],
        ]
        assert len({cert.matrices[0][0] for cert in certs}) == 1
        assert drawn == [PRIME_BOUND]
        gin(parse_ideal(STAIRCASE_3))
        assert drawn == [PRIME_BOUND] * 2

    def test_tiny_primes_fail_rounds_not_the_program(self):
        # with B = 2 the rounds run mod primes below 64: trials fall short
        # of rank, are not strongly stable (p = 3) or disagree.  Each is
        # a failed round; no ValueError, which the CLI reports as a usage
        # error, escapes the arithmetic mod p
        ideals = [I for spec in ACCEPTANCE_SPECS for I in generate(spec)]
        ideals.append(parse_ideal(self.BAD_AT_3))
        escalations = 0
        for ideal in ideals:
            try:
                J, cert = gin(ideal, coeff_bound=2)
            except GenericityError:
                continue
            assert is_strongly_stable(J)
            escalations += cert.escalations
        assert escalations > 0

    def test_failure_bound(self, staircase3):
        # sum d dim I_d / p over the generator degrees of the gin
        J, cert = gin(staircase3)
        ((p, _), _) = cert.matrices
        degrees = {sum(m) for m in J.gens}
        want = Fraction(sum(d * staircase3.dim_piece(d) for d in degrees), p)
        assert cert.failure_bound == want
        assert f"failure bound:   {float(want):.3g} per trial" in cert.describe()
        # a probability: mod 3 the sum passes 1
        _, small = gin(staircase3, coeff_bound=2)
        assert small.matrices[0][0] == 3 and small.failure_bound == 1

    def test_failure_bound_of_the_q5_lex_gin(self):
        # the gin check --all builds for transfer on the generic workload's
        # q5; at the integer bound 1000 the same sum was 0.83
        workloads = load_perfbench("workloads")
        kind, n, count = workloads.QUADRICS["q5"]
        I = workloads.dense_quadrics(kind, n, count, "q5")
        cut = RigidityContext(I, seed=0).scan_cut
        _, cert = gin(I, order=LEX, max_scan_degree=cut)
        assert cert.truncated_at == cut
        assert 0 < cert.failure_bound <= Fraction(1, 1 << 40)
