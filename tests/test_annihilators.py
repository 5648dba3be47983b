import gc
import hashlib
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

from ginlab import annihilators
from ginlab.annihilators import (
    GenericSequence,
    HomologyWorkspace,
    annihilator_index_set,
    annihilators_from_gin,
    generic_annihilators_direct,
    partial_delta,
    partial_homology,
    upper_bound_check,
    verify_homology_formula,
)
from ginlab.betti import cartan_betti, koszul_betti, mult_var
from ginlab.corpus import ACCEPTANCE_SPECS, generate
from ginlab.groebner import gin
from ginlab.ideals import Ideal, degree_rows
from ginlab.linalg import IntRank, ModRank
from ginlab.oracles import alpha_oracle, oracle_equivalences
from ginlab.parsing import parse_ideal
from ginlab.rigidity import RigidityContext, battery, lemma_can_check
from ginlab.rings import (
    PRIME_BOUND,
    BadPrime,
    Element,
    GenericityError,
    Ring,
    change_coordinates,
    exterior_ring,
    linear_form,
    polynomial_ring,
)

from conftest import (
    CANCEL_4,
    CRITERION_6,
    STAIRCASE_3,
    STRAND_4,
    force_forms_prime,
    integer_sequence,
    load_perfbench,
)
from test_homology_values import REFERENCE


class TestDirect:
    def test_square_in_two_vars(self):
        I = parse_ideal("ring poly 2 QQ\nx1^2\n")
        t = generic_annihilators_direct(I, seed=0)
        assert t.entries == {(2, 1): 1}

    def test_residue_field(self):
        I = parse_ideal("ring poly 3 QQ\nx1\nx2\nx3\n")
        t = generic_annihilators_direct(I, seed=0)
        assert t.entries == {(1, 0): 1, (2, 0): 1, (3, 0): 1}

    def test_exterior_two_form(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        t = generic_annihilators_direct(I, seed=0)
        assert t.entries == {(2, 1): 1}

    def test_coeff_bound_below_one_raises(self):
        # the sequences and gin share one bound check; [1, 2) holds no
        # prime, so bound 1 is refused too
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        for bound in (-3, 0, 1, PRIME_BOUND << 17):
            with pytest.raises(ValueError, match="coefficient bound") as err:
                GenericSequence.draw(I.ring, 0, "0:0:a", bound)
            with pytest.raises(ValueError) as same:
                gin(I, coeff_bound=bound)
            assert str(err.value) == str(same.value)

    @pytest.mark.parametrize(
        "route",
        [
            generic_annihilators_direct,
            upper_bound_check,
            verify_homology_formula,
            lambda I: partial_homology(I, 1),
            lambda I: partial_delta(I, 1),
        ],
        ids=["direct", "upper-bound", "formula", "partial", "delta"],
    )
    def test_exterior_unit_ideal_raises(self, route):
        # every generic-sequence route reads its window from _windows,
        # which refuses the unit ideal over E as gin does over S
        with pytest.raises(ValueError, match="^proper ideal expected$"):
            route(parse_ideal("ring ext 3 QQ\n1\n"))

    def test_staircase(self):
        I = parse_ideal(STAIRCASE_3)
        t = generic_annihilators_direct(I, seed=0)
        assert t.entries == {
            (3, 1): 1,
            (2, 1): 1,
            (2, 2): 1,
            (1, 3): 1,
            (1, 4): 1,
            (1, 5): 2,
        }


class TestFromGin:
    def test_staircase_counts(self):
        I = parse_ideal(STAIRCASE_3)
        t = annihilators_from_gin(I, seed=0)
        assert t.entries == generic_annihilators_direct(I, seed=0).entries

    def test_principal_variable(self):
        I = parse_ideal("ring poly 3 QQ\nx1\n")
        t = annihilators_from_gin(I, seed=0)
        assert t.entries == {(3, 0): 1}

    def test_exterior_matches_direct(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        assert annihilators_from_gin(I, seed=0).same_numbers(
            generic_annihilators_direct(I, seed=0)
        )


def random_small_ideal(ring, rng, max_degree=3, max_gens=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_degree)
        terms = {}
        for m in ring.monomials(d):
            c = rng.randint(-2, 2)
            if c and rng.random() < 0.6:
                terms[m] = c
        if terms:
            gens.append(Element(ring, terms))
    if not gens:
        return None
    I = Ideal(ring, gens)
    return None if I.contains_unit() else I


def test_direct_equals_from_gin_random():
    rng = random.Random(5)
    for kind, n in (("poly", 2), ("poly", 3), ("ext", 3), ("ext", 4)):
        ring = polynomial_ring(n) if kind == "poly" else exterior_ring(n)
        done = 0
        while done < 3:
            I = random_small_ideal(ring, rng)
            if I is None:
                continue
            done += 1
            assert generic_annihilators_direct(I, seed=1).same_numbers(
                annihilators_from_gin(I, seed=1)
            )


def _reference_prefix_dims(ideal, seq, dmax):
    """The unpruned prefix dimensions: every row of every degree, mod the
    sequence's prime, or over QQ for integer forms (prime None)."""
    ring = ideal.ring
    n = ring.n
    # annihilators.ModRank: the engine _prefix_dims feeds, and counts
    engine = (
        IntRank if seq.prime is None
        else partial(annihilators.ModRank, seq.prime)
    )
    gens = [g.normalized_integer() for g in ideal.generators]
    dims = [[0] * (dmax + 1) for _ in range(n + 1)]
    forms = [linear_form(ring, row) for row in seq.rows]
    for d in range(dmax + 1):
        monos = ring.monomials(d)
        if not monos:
            continue
        index = {m: i for i, m in enumerate(monos)}
        eng = engine()
        for row in degree_rows(ring, gens, d, index):
            eng.add(row)
        dims[0][d] = eng.rank
        for p in range(1, n + 1):
            for row in degree_rows(ring, [forms[p - 1]], d, index):
                eng.add(row)
            dims[p][d] = eng.rank
    return dims


def _counting_rows(monkeypatch):
    """Count every row fed to the ModRank of annihilators from here on:
    the prefix eliminations of _prefix_dims and the rows of the reference
    mod p, not the rows of gin."""
    rows = [0]

    class Counting(ModRank):
        def add(self, row):
            rows[0] += 1
            return super().add(row)

    monkeypatch.setattr(annihilators, "ModRank", Counting)
    return rows


HAND_ROWS = pytest.mark.parametrize(
    "text, rows",
    [
        # unitriangular flags, as drawn, with zeros above the diagonal: a
        # prefix form skips a variable that is free in its quotient, and
        # the third form of ext5 is a variable
        (STRAND_4, ((1, 0, 3, -2), (0, 1, 0, 5), (0, 0, 1, -1), (0, 0, 0, 1))),
        (CANCEL_4, ((1, 0, 0, 4), (0, 1, 2, 0), (0, 0, 1, 5), (0, 0, 0, 1))),
        ("ring ext 4 QQ\ne1*e2 + e3*e4\ne2*e3\n",
         ((1, 0, 3, -2), (0, 1, 0, 5), (0, 0, 1, -1), (0, 0, 0, 1))),
        ("ring ext 5 QQ\ne1*e3 - e2*e5\ne4*e5 + 2*e1*e2\ne1*e2*e3\n",
         ((1, 0, 0, 0, 1), (0, 1, 0, -1, 3), (0, 0, 1, 0, 0),
          (0, 0, 0, 1, 4), (0, 0, 0, 0, 1))),
        # y_1 = x1 - 2*x3, resp. e1 + 2*e3, divides the generator, so it
        # vanishes modulo y_1 only if x1 goes to 2*x3, resp. -2*e3, mod p
        ("ring poly 3 QQ\nx1^2 - 4*x3^2\n",
         ((1, 0, -2), (0, 1, 0), (0, 0, 1))),
        ("ring ext 3 QQ\ne1*e2 - 2*e2*e3\n",
         ((1, 0, 2), (0, 1, 0), (0, 0, 1))),
    ],
    ids=["poly4-strand", "poly4-cancel", "ext4", "ext5", "poly3-special",
         "ext3-special"],
)


def _hand_sequence(ring, rows):
    """The hand-drawn rows as a sequence mod the prime 2^61 - 1."""
    p = (1 << 61) - 1
    rows = tuple(tuple(x % p for x in row) for row in rows)
    return GenericSequence(ring, rows, "hand", PRIME_BOUND, p)


class TestPrefixDims:
    """The pruned prefix dimensions against the unpruned reference."""

    def test_corpus_draws_match_reference(self, monkeypatch):
        # every certified draw and every dmax the direct route really uses
        pruned = annihilators._prefix_dims
        calls = []

        def checked(ideal, seq, dmax):
            dims = pruned(ideal, seq, dmax)
            assert dims == _reference_prefix_dims(ideal, seq, dmax), (ideal, dmax)
            calls.append(seq.key)
            return dims

        monkeypatch.setattr(annihilators, "_prefix_dims", checked)
        specs = ACCEPTANCE_SPECS + CRITERION_6
        ideals = [ideal for spec in specs for ideal in generate(spec)]
        assert len(ideals) == 120
        for ideal in ideals:
            before = len(calls)
            generic_annihilators_direct(ideal, seed=0)
            assert {"0:0:a", "0:0:b"} <= set(calls[before:])

    def test_corpus_draws_pinned(self, monkeypatch):
        # the key, bound, prime and rows of every sequence the direct
        # route draws on the 100 acceptance ideals
        pruned = annihilators._prefix_dims
        draws = []

        def recorded(ideal, seq, dmax):
            # each is the draw of rings.certified_draw for its round and
            # tag, and round 0's a is the single-draw routes' sequence
            _, e, tag = seq.key.split(":")
            ring = ideal.ring
            assert seq == GenericSequence.draw(
                ring, 0, f"0:{e}:{tag}", PRIME_BOUND << int(e), "forms"
            )
            if (e, tag) == ("0", "a"):
                assert seq == GenericSequence.first(ring, 0)
            draw = repr((seq.key, seq.bound, seq.prime, seq.rows))
            if not draws or draws[-1] != draw:
                draws.append(draw)
            return pruned(ideal, seq, dmax)

        monkeypatch.setattr(annihilators, "_prefix_dims", recorded)
        for spec in ACCEPTANCE_SPECS:
            for ideal in generate(spec):
                generic_annihilators_direct(ideal, seed=0)
        assert len(draws) == 200
        assert hashlib.sha256("\n".join(draws).encode()).hexdigest() == (
            "1341e12314db7831aa9659caccc931ff362ed258933906c636f7beb0e4f02506"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "ring poly 3 QQ\nx1\n",  # fills at p = 2 of 3 in degree 1
            "ring poly 3 QQ\nx1^2\nx2^2\nx3^2\n",  # I itself fills degree 4
            "ring poly 2 QQ\nx1^2 + x2^2\n",
            "ring ext 3 QQ\ne1\n",  # fills at p = 2 of 3 in degree 1 over E
            "ring ext 4 QQ\ne1*e2 + e3*e4\ne2*e3\n",
        ],
    )
    def test_hand_cases_match_reference(self, text, monkeypatch):
        I = parse_ideal(text)
        seq = GenericSequence.draw(I.ring, 0, "0:0:a")
        rows = _counting_rows(monkeypatch)
        dims = annihilators._prefix_dims(I, seq, 6)
        pruned_rows = rows[0]
        assert dims == _reference_prefix_dims(I, seq, 6)
        assert pruned_rows < rows[0] - pruned_rows  # a stop cut rows

    @HAND_ROWS
    def test_pivots_off_the_leading_columns(self, text, rows):
        I = parse_ideal(text)
        seq = _hand_sequence(I.ring, rows)
        dims = annihilators._prefix_dims(I, seq, 7)
        assert dims == _reference_prefix_dims(I, seq, 7)

    @HAND_ROWS
    def test_echelon_of_the_hand_rows(self, text, rows):
        # the hand rows are in echelon form, as every draw: _quotient of
        # each prefix sends its forms to 0 and the free variables to the
        # variables of R'
        ring = parse_ideal(text).ring
        seq = _hand_sequence(ring, rows)
        n = ring.n
        for q in range(1, n):
            forms = [linear_form(ring, row) for row in seq.rows[:q]]
            free = [ring.variable(j) for j in range(q, n)]
            quotient, images = annihilators._quotient(
                Ideal(ring, forms + free), seq.rows[:q], seq.prime
            )
            assert all(f.is_zero() for f in images[:q]), q
            assert images[q:] == [quotient.variable(j) for j in range(n - q)]

    @pytest.mark.parametrize("kind", ["poly", "ext"])
    def test_forms_vanish_in_their_quotient(self, kind):
        # pins the map R -> R' = R/(y_1..y_p), not only the dimensions:
        # any p independent forms give the same dimensions on a generic
        # ideal, but only forms in the span of the drawn y_1..y_p have zero
        # images
        for n in range(2, 7):
            ring = Ring(kind, n)
            for seed in range(10):
                seq = GenericSequence.first(ring, seed)
                for p in range(1, n):
                    forms = seq.rows[:p]
                    ideal = Ideal(ring, [linear_form(ring, r) for r in forms])
                    _, images = annihilators._quotient(ideal, forms, seq.prime)
                    assert all(f.is_zero() for f in images), (kind, n, seed, p)

    @pytest.mark.parametrize("tag", ["q4", "e5"])
    def test_dense_quadrics_of_the_generic_workload(self, tag):
        workloads = load_perfbench("workloads")
        kind, n, count = workloads.QUADRICS[tag]
        I = workloads.dense_quadrics(kind, n, count, tag)
        seq = GenericSequence.draw(I.ring, 0, "0:0:a")
        dmax = annihilators._windows(I, 0)[0] + 1  # as _alpha_for_sequence
        dims = annihilators._prefix_dims(I, seq, dmax)
        assert dims == _reference_prefix_dims(I, seq, dmax)

    def test_rows_fed_on_the_two_variable_corpus(self, monkeypatch):
        # pins the stops: p = 0 comes from the Hilbert numerator of in(I),
        # and each p >= 1 eliminates only over the free variables of its
        # prefix, so only 10 rows are fed to ModRank (170 on all dim R_d
        # columns, 1,338 with no stop at all)
        ideals = generate(ACCEPTANCE_SPECS[0])
        for ideal in ideals:
            gin(ideal, seed=0)  # memoized: gin's own rows stay out of the count
        rows = _counting_rows(monkeypatch)
        for ideal in ideals:
            assert alpha_oracle(ideal, seed=0).ok
        assert rows[0] == 10


class TestProfiles:
    def test_full_length_is_betti(self):
        I = parse_ideal(STAIRCASE_3)
        prof = partial_homology(I, 3, seed=0)
        assert prof == dict(koszul_betti(I, seed=0).entries)

    def test_full_length_is_betti_exterior(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        prof = partial_homology(I, 3, seed=0)  # window i <= n + 2
        assert prof == cartan_betti(I, i_max=5).entries

    def test_exterior_first_form_is_alpha(self):
        I = parse_ideal("ring ext 3 QQ\ne1*e2\n")
        alpha = generic_annihilators_direct(I, seed=0)
        prof = partial_homology(I, 1, seed=0)
        for i in range(1, 6):
            for k in range(0, 3):
                assert prof.get((i, i + k), 0) == alpha.get(1, k)

    def test_nonzerodivisor_form(self):
        # a generic form is regular on S/(x1): H_1 vanishes
        I = parse_ideal("ring poly 2 QQ\nx1\n")
        prof = partial_homology(I, 1, seed=0)
        assert not any(i == 1 for (i, j) in prof)
        # h_{0,j}(1) is the Hilbert function of M/y1M = K
        assert prof.get((0, 0)) == 1
        assert all(prof.get((0, j), 0) == 0 for j in range(1, 4))

    def test_delta_slice_two_seeds(self):
        I = parse_ideal(STAIRCASE_3)
        d1 = partial_delta(I, 1, seed=0)
        d2 = partial_delta(I, 1, seed=99)
        assert d1 == d2

    @pytest.mark.parametrize(
        "text", [STAIRCASE_3, "ring ext 3 QQ\ne1*e2\n"], ids=["poly", "ext"]
    )
    @pytest.mark.parametrize(
        "route, p", [
            (partial_homology, -1),
            (partial_homology, 4),
            (partial_delta, -1),
            (partial_delta, 3),
        ],
    )
    def test_sequence_length_out_of_range_raises(self, text, route, p,
                                                 monkeypatch):
        # refused before _windows computes a gin
        monkeypatch.setattr(annihilators, "_windows", None)
        with pytest.raises(ValueError, match="p must lie in 0.."):
            route(parse_ideal(text), p, seed=0)


class TestEscalation:
    """The failure paths of the sequence routes' certified draws."""

    def test_disagreeing_draws_escalate_through_five_rounds(self, monkeypatch):
        drawn = []

        def by_seed(ws, p, imax, kmax):
            drawn.append((ws.seq.key, ws.seq.bound))
            return {(0, 0): ws.seq.key}

        monkeypatch.setattr(HomologyWorkspace, "profile", by_seed)
        with pytest.raises(GenericityError) as err:
            partial_homology(parse_ideal(STAIRCASE_3), 2, seed=7)
        assert str(err.value) == (
            "genericity not reached after escalation: "
            + "; ".join(["trials disagree"] * 5)
        )
        assert drawn == [
            (f"7:{e}:{tag}", PRIME_BOUND << e) for e in range(5) for tag in "ab"
        ]

    def test_direct_without_a_zero_band_raises(self, monkeypatch):
        # over S alpha_{p,k} counts gin generators of degree k + 1 <= r, so
        # the band k >= k_max - 1 = r + 1 is zero; an entry there fails the
        # round, and the failure names it
        alpha = annihilators._alpha_for_sequence

        def banded(ideal, seq, kmax):
            return {**alpha(ideal, seq, kmax), (2, kmax - 1): 1}

        monkeypatch.setattr(annihilators, "_alpha_for_sequence", banded)
        I = parse_ideal(STAIRCASE_3)
        band = gin(I, seed=0)[0].max_gen_degree() + 1
        with pytest.raises(GenericityError) as err:
            generic_annihilators_direct(I, seed=0)
        failure = f"nonzero alpha_(p,k) at (2, {band}), in the zero band k >= {band}"
        assert str(err.value) == (
            "genericity not reached after escalation: "
            + "; ".join([failure] * 5)
        )


class TestFormula:
    def test_staircase_all_cells(self):
        rep = verify_homology_formula(parse_ideal(STAIRCASE_3), seed=0)
        assert rep.ok and rep.cells_checked >= 50

    def test_strand_ideal(self):
        rep = verify_homology_formula(parse_ideal(STRAND_4), seed=0)
        assert rep.ok

    def test_exterior_small(self):
        rep = verify_homology_formula(parse_ideal("ring ext 3 QQ\ne1*e2\n"), seed=0)
        assert rep.ok and rep.recurrences_checked > 0

    def test_exterior_random(self):
        rng = random.Random(31)
        ring = exterior_ring(4)
        done = 0
        while done < 2:
            I = random_small_ideal(ring, rng)
            if I is None:
                continue
            done += 1
            assert verify_homology_formula(I, seed=0).ok

    def test_index_set(self):
        assert annihilator_index_set(2, 3) == [(1, 1), (2, 1), (1, 2), (2, 2)]
        assert annihilator_index_set(1, 1) == []


class TestVanishingPropagation:
    def _m_annihilates(self, ws, i, p, j):
        """(m * H_i(p))_j = 0: every coordinate form maps into boundaries."""
        d = j - 1 - i
        if ws.dim(d) == 0:
            return True
        rank0 = ws.boundary_rank(p, i + 1, j)
        prime = ws.seq.prime
        for t in range(ws.ring.n):
            cols = [
                {idx: v % prime for idx, v in col.items() if v % prime}
                for col in mult_var(ws.ideal, t, d)
            ]
            eng = ws._eliminate(p, i + 1, j)  # a fresh boundary ModRank
            for z in ws.cycles(p, i, j - 1):
                eng.add(ws._push(z, d, cols))
            if eng.rank != rank0:
                return False
        return True

    def test_koszul_propagation(self):
        # socle-degree vanishing propagates one homological step up
        I = parse_ideal("ring poly 3 QQ\nx1^2\nx1*x2\nx2^2\n")
        seq = GenericSequence.draw(I.ring, 0, "prop")
        ws = HomologyWorkspace(I, seq)
        n = 3
        for k in range(0, 4):
            for i in range(1, n):
                if all(self._m_annihilates(ws, i, p, i + k) for p in range(1, n)):
                    assert all(
                        self._m_annihilates(ws, i + 1, p, i + 1 + k)
                        for p in range(1, n)
                    )

    def test_exterior_delta_propagation(self):
        I = parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\ne2*e3\n")
        seq = GenericSequence.draw(I.ring, 0, "prop")
        ws = HomologyWorkspace(I, seq)
        n = 4
        for k in range(0, 5):
            for i in range(1, 4):
                if all(ws.delta(p, i, k) == 0 for p in range(1, n)):
                    for t in (1, 2):
                        assert all(
                            ws.delta(p, i + t, k + t) == 0 for p in range(1, n)
                        )


class TestRowOrder:
    """Sparsest-first feeding changes no rank and no cycle space, over QQ
    on the coordinates and mod p along a sequence."""

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize("drawn", [False, True], ids=["coords", "seq"])
    def test_eliminations_match_natural_order(self, name, drawn):
        I = parse_ideal(REFERENCE[name])
        seq = GenericSequence.draw(I.ring, 0, "rows") if drawn else None
        prime = seq.prime if drawn else None
        engine = partial(ModRank, prime) if drawn else IntRank
        ws = HomologyWorkspace(I, seq)
        kmax, imax = annihilators._windows(I, 0)
        n = I.ring.n
        for p in range(n + 1):
            for i in range(1, imax + 2):
                for j in range(i, i + kmax + 2):
                    cols = sorted(ws._columns(p, i, j), key=lambda c: c[0])
                    natural = engine()
                    for _, col in cols:
                        natural.add(col)
                    rank = ws._eliminate(p, i, j).rank
                    assert rank == natural.rank, (p, i, j)
                    cycles = ws.cycles(p, i, j)
                    assert len(cycles) == ws.chain_dim(p, i, j) - rank
                    independent = engine()
                    for z in cycles:
                        independent.add(z)
                    assert independent.rank == len(cycles)
                    for z in cycles:
                        image = {}
                        for c, zc in z.items():
                            for r, v in cols[c][1].items():
                                image[r] = image.get(r, 0) + zc * v
                        assert not any(
                            v % prime if drawn else v for v in image.values()
                        ), (p, i, j)


class TestClearing:
    """A boundary elimination cleared by the pivots of the differential
    above it has the rank and pivot set of a fresh engine fed every column,
    over QQ on the coordinates and mod p along round 0's sequence a."""

    @staticmethod
    def checked_eliminations(monkeypatch):
        """Wrap _eliminate so that every boundary engine it returns is
        compared with the full-column elimination; counts (eliminations
        checked, eliminations that found a pivot set to clear with)."""
        real = HomologyWorkspace._eliminate
        count = [0, 0]

        def checked(self, p, i, j, ncols=None):
            cleared = ncols is None and (p, i + 1, j) in self._pivots
            eng = real(self, p, i, j, ncols)
            if ncols is None:
                seq = self.seq
                full = IntRank() if seq is None else ModRank(seq.prime)
                for _, col in self._columns(p, i, j):
                    full.add(col)
                assert eng.rank == full.rank, (seq, p, i, j)
                assert eng.pivots.keys() == full.pivots.keys(), (seq, p, i, j)
                count[0] += 1
                count[1] += cleared
            return eng

        monkeypatch.setattr(HomologyWorkspace, "_eliminate", checked)
        return count

    def test_cleared_ranks_equal_the_full_columns(self, monkeypatch):
        # every cell of the profile and delta windows of _sequence_routes
        # on the oracle ideals, the acceptance corpus and the generic
        # workload's dense quadrics q4 and e5; the ideals are fresh, so no
        # rank comes from an earlier memo
        count = self.checked_eliminations(monkeypatch)
        acceptance = [i for spec in ACCEPTANCE_SPECS for i in generate(spec)]
        workloads = load_perfbench("workloads")
        quadrics = [
            workloads.dense_quadrics(*workloads.QUADRICS[tag], tag)
            for tag in ("q4", "e5")
        ]
        ideals = _oracle_ideals() + acceptance + quadrics
        assert len(ideals) == 128
        for ideal in ideals:
            kmax, imax = annihilators._windows(ideal, 0)
            for seq in (None, GenericSequence.first(ideal.ring, 0)):
                _sequence_routes(ideal, seq, kmax, imax)
        checked, cleared = count
        assert 0 < cleared < checked


class TestUpperBound:
    def test_two_variables_attained(self):
        rep = upper_bound_check(parse_ideal("ring poly 2 QQ\nx1\nx2\n"), seed=0)
        assert rep.ok and rep.attained_everywhere

    def test_strand_strict(self):
        rep = upper_bound_check(parse_ideal(STRAND_4), seed=0)
        assert rep.ok and not rep.attained_everywhere

    def test_zero(self):
        rep = upper_bound_check(Ideal.zero(polynomial_ring(2)), seed=0)
        assert rep.ok

    def test_exterior(self):
        rep = upper_bound_check(parse_ideal("ring ext 3 QQ\ne1*e2\n"), seed=0)
        assert rep.ok


def test_ungraded_totals_from_graded_cells():
    # summing the graded formula over k gives the ungraded identity
    from ginlab.betti import binom

    I = parse_ideal("ring poly 3 QQ\nx1^2\nx1*x2\nx2^3\n")
    seq = GenericSequence.draw(I.ring, 0, "totals")
    ws = HomologyWorkspace(I, seq)
    from ginlab.annihilators import _alpha_for_sequence

    alpha = _alpha_for_sequence(I, seq, 6)
    n, kk = 3, 6
    for p in range(1, n + 1):
        for i in range(1, p + 1):
            total_h = sum(ws.h(p, i, i + k) for k in range(kk + 1))
            total_alpha = sum(
                binom(p - j, i - 1) * alpha.get((j, k), 0)
                for j in range(1, p - i + 2)
                for k in range(kk + 1)
            )
            total_delta = sum(
                binom(p - b - 1, i - a) * ws.delta(b, a, a + k)
                + binom(p - b - 1, i - a - 1) * ws.delta(b, a, a + k + 1)
                for (a, b) in annihilator_index_set(i, p)
                for k in range(kk + 1)
            )
            assert total_h == total_alpha - total_delta


# ---------------------------------------------------------------------------
# the integer draws over QQ, the reference of the routes mod p


def _inverse(rows):
    """The inverse of an invertible square matrix over QQ (Gauss-Jordan)."""
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _coordinate_image(ideal, seq):
    """phi(I) for the change of coordinates phi that sends each form y_i of
    seq to x_i: on R/phi(I) the first p coordinates have the Koszul
    (Cartan) homology of y_1..y_p on R/I, exactly over QQ."""
    inv = _inverse(seq.rows)
    # phi(x_i) = sum_j inv[i][j] x_j; change_coordinates reads the transpose
    g = [list(col) for col in zip(*inv)]
    return Ideal(ideal.ring, change_coordinates(ideal.ring, ideal.generators, g))


def _integer_workspace(ideal):
    """The coordinate workspace of phi(I) for round 0's draw a over QQ."""
    seq = integer_sequence(ideal.ring, "0:0:a")
    return HomologyWorkspace(_coordinate_image(ideal, seq))


def _integer_routes(ideal, monkeypatch):
    """(alpha entries, partial homology at each p, delta at each p < n)
    along the integer sequence of round 0's draw a over QQ: alpha from the
    unpruned prefix dimensions, homology and delta from the coordinate
    workspace of phi(I), exact over QQ (IntRank)."""
    kmax, imax = annihilators._windows(ideal, 0)
    n = ideal.ring.n
    seq = integer_sequence(ideal.ring, "0:0:a")
    with monkeypatch.context() as m:
        m.setattr(annihilators, "_prefix_dims", _reference_prefix_dims)
        alpha = annihilators._alpha_for_sequence(ideal, seq, kmax)
    ws = _integer_workspace(ideal)
    return (
        alpha,
        [ws.profile(p, imax, kmax) for p in range(n + 1)],
        [annihilators._delta_slice(ws, p, kmax, imax) for p in range(n)],
    )


def test_routes_mod_p_equal_the_integer_routes_over_QQ(monkeypatch):
    # the certified routes mod p against one integer draw over QQ, with
    # entries in [-1000, 1000], on the reference ideals and the exterior
    # corpora of acceptance criterion 6
    ideals = _oracle_ideals()
    assert len(ideals) == 26
    for ideal in ideals:
        alpha, homology, delta = _integer_routes(ideal, monkeypatch)
        n = ideal.ring.n
        assert generic_annihilators_direct(ideal, seed=0).entries == alpha
        assert [partial_homology(ideal, p) for p in range(n + 1)] == homology
        assert [partial_delta(ideal, p) for p in range(n)] == delta


def _oracle_ideals():
    """The reference ideals and the exterior corpora of criterion 6."""
    ideals = [parse_ideal(text) for text in REFERENCE.values()]
    return ideals + [ideal for spec in CRITERION_6 for ideal in generate(spec)]


def _sequence_routes(ideal, seq, kmax, imax):
    """(partial homology at each p, delta at each p < n) along seq, read
    off one HomologyWorkspace."""
    ws = HomologyWorkspace(ideal, seq)
    n = ideal.ring.n
    return (
        [ws.profile(p, imax, kmax) for p in range(n + 1)],
        [annihilators._delta_slice(ws, p, kmax, imax) for p in range(n)],
    )


def _dense_basis(seq, rng):
    """Another basis of the flag of seq: row t goes to sum_{s <= t} a_{ts}
    row_s mod p, the a_{ts} drawn from rng with a_{tt} != 0."""
    p, n = seq.prime, seq.ring.n
    rows = []
    for t in range(n):
        a = [rng.randrange(p) for _ in range(t)] + [rng.randrange(1, p)]
        rows.append(tuple(
            sum(c * row[j] for c, row in zip(a, seq.rows)) % p for j in range(n)
        ))
    return GenericSequence(seq.ring, tuple(rows), seq.key, seq.bound, p)


def test_routes_depend_on_the_flag_alone():
    # every h and delta depends on the flag span(y_1) < span(y_1, y_2) <
    # ... alone: a workspace on round 0's unitriangular rows a and one on
    # a dense basis of the same flag agree on every cell of the window.
    # Their memo keys (prime, rows) differ, so neither reads the other's
    acceptance = [i for spec in ACCEPTANCE_SPECS for i in generate(spec)]
    ideals = _oracle_ideals() + acceptance
    assert len(ideals) == 126
    rng = random.Random("dense flag bases")
    for ideal in ideals:
        kmax, imax = annihilators._windows(ideal, 0)
        seq = GenericSequence.first(ideal.ring, 0)
        dense = _dense_basis(seq, rng)
        assert dense.rows[-1][0]  # dense: even y_n has an x_1 term
        assert _sequence_routes(ideal, seq, kmax, imax) == _sequence_routes(
            ideal, dense, kmax, imax
        ), ideal


def _reference_delta(ws, p, i, k):
    """delta(p, i, k) by the kernel route on every cell, with no zero rule:
    the rank the images of the source cycles add to the boundaries of
    C_{i+1,k}(p)."""
    d = k - 1 - i
    if i < 1 or d < 0 or ws.dim(d) == 0:
        return 0
    reindex = None
    if ws.ring.is_exterior:
        tgt = {s: idx for idx, s in enumerate(ws.chain_sets(p, i))}
        reindex = [None if a[p] else tgt[a[:p]] for a in ws.chain_sets(p + 1, i)]
        src = ws.cycles(p + 1, i, k - 1)
    else:
        src = ws.cycles(p, i, k - 1)
    eng = ws._eliminate(p, i + 1, k)
    rank0 = eng.rank
    for z in src:
        eng.add(ws._push(z, d, ws.mult(p, d), reindex))
    return eng.rank - rank0


def test_zero_rule_equals_the_kernel_route():
    # every cell of the delta window, mod p along round 0's sequence a and
    # over QQ on the coordinate workspace of the integer draw
    ideals = _oracle_ideals()
    assert len(ideals) == 26
    for ideal in ideals:
        kmax, imax = annihilators._windows(ideal, 0)
        n = ideal.ring.n
        for ws in (
            HomologyWorkspace(ideal, GenericSequence.first(ideal.ring, 0)),
            _integer_workspace(ideal),
        ):
            for p in range(n):
                for i in range(1, imax + 1):
                    for k in range(i + kmax + 2):
                        assert ws.delta(p, i, k) == _reference_delta(
                            ws, p, i, k
                        ), (ws.seq, p, i, k)


def test_cycle_bases_only_where_both_ends_are_nonzero():
    # the cycle basis Z_i(q)_j is read by delta(q, i, j + 1) over S and by
    # delta(q - 1, i, j + 1) over E; it is built only where both homology
    # spaces of that map are nonzero
    built = 0
    for ideal in _oracle_ideals():
        verify_homology_formula(ideal, seed=0)
        ws = HomologyWorkspace(ideal, GenericSequence.first(ideal.ring, 0))
        shift = 1 if ws.ring.is_exterior else 0
        for q, i, j in ws._cycles:
            if i >= 1:
                built += 1
                assert ws.h(q, i, j) and ws.h(q - shift, i, j + 1), (q, i, j)
    assert built <= 60


class TestBadPrimes:
    """A round prime that divides a Piece.den the workspace reads fails its
    round; a single draw raises GenericityError.  No ValueError of
    pow(x, -1, p) escapes."""

    # 3*e1*e2 + 2*e2*e3 leads I_2: its normal forms have denominator 3
    DEN_3 = "ring ext 3 QQ\ne1*e2 + 2/3*e2*e3\n"
    DEN_3_POLY = "ring poly 3 QQ\n3*x1^2 + x2^2\nx2*x3\n"

    @staticmethod
    def failures(monkeypatch):
        """The BadPrime texts of the sequence routes' draws from here on."""
        out = []
        loop = annihilators.certified_draw

        def recorded(ring, seed, bound, label, tags, compute, key=None,
                     check=None):
            def recording(seq):
                try:
                    return compute(seq)
                except BadPrime as exc:
                    out.append(str(exc))
                    raise

            return loop(ring, seed, bound, label, tags, recording, key, check)

        monkeypatch.setattr(annihilators, "certified_draw", recorded)
        return out

    def test_bad_denominator_fails_the_round(self, monkeypatch):
        want = partial_homology(parse_ideal(self.DEN_3), 2)
        I = parse_ideal(self.DEN_3)
        assert I.piece(2).den == 3
        force_forms_prime(monkeypatch, 3, rounds=1)
        failures = self.failures(monkeypatch)
        assert partial_homology(I, 2) == want
        assert failures[0] == "prime 3: it divides the denominator 3 of I_2"

    def test_an_entry_divisible_by_p_is_no_bad_prime(self):
        # mult_var(I, 0, 1) holds the entry 10, 0 mod 5, while the
        # denominator 2 of I_2 is prime to 5: the column mod 5 drops it
        I = parse_ideal("ring poly 3 QQ\n2*x1*x2 + x3^2\nx1^2 - 5*x2*x3\n")
        rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        ws = HomologyWorkspace(I, GenericSequence(I.ring, rows, "id", 1, 5))
        assert any(10 in col.values() for col in mult_var(I, 0, 1))
        assert ws.mult(0, 1) == [
            {idx: v % 5 for idx, v in col.items() if v % 5}
            for col in mult_var(I, 0, 1)
        ]

    def test_single_draws_raise_genericity_error(self, monkeypatch):
        force_forms_prime(monkeypatch, 3)
        with pytest.raises(GenericityError, match="^prime 3: "):
            verify_homology_formula(parse_ideal(self.DEN_3))
        ctx = RigidityContext(parse_ideal(self.DEN_3_POLY), seed=0)
        with pytest.raises(GenericityError, match="^prime 3: "):
            lemma_can_check(ctx)


# ---------------------------------------------------------------------------
# one homology state per ideal and set of forms


class TestSharedState:
    """Every HomologyWorkspace on one ideal and set of forms reads one state
    in Ideal.memo, and so does every _prefix_dims, so a route run again
    eliminates nothing, and the single-draw routes share round 0's
    sequence a; no memo entry refers back to its ideal."""

    @staticmethod
    def eliminations(monkeypatch):
        """The argument tuples of HomologyWorkspace._eliminate from here on."""
        calls = []
        real = HomologyWorkspace._eliminate

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(HomologyWorkspace, "_eliminate", counted)
        return calls

    ROUTES = {
        "formula": lambda I: verify_homology_formula(I, seed=0),
        "partial": lambda I: (
            [partial_homology(I, p) for p in range(I.ring.n + 1)],
            [partial_delta(I, p) for p in range(I.ring.n)],
        ),
        "lemma": lambda I: lemma_can_check(RigidityContext(I, seed=0)),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_a_repeated_route_eliminates_nothing(self, route, monkeypatch):
        I = parse_ideal(CANCEL_4)
        first = self.ROUTES[route](I)
        calls = self.eliminations(monkeypatch)
        assert self.ROUTES[route](I) == first
        assert calls == []

    def test_the_lemma_reads_the_formula_state(self, monkeypatch):
        calls = self.eliminations(monkeypatch)
        lemma_can_check(RigidityContext(parse_ideal(CANCEL_4), seed=0))
        alone = len(calls)
        I = parse_ideal(CANCEL_4)
        verify_homology_formula(I, seed=0)
        calls.clear()
        lemma_can_check(RigidityContext(I, seed=0))
        assert len(calls) < alone

    def test_a_repeated_alpha_route_feeds_no_prefix_rows(self, monkeypatch):
        I = parse_ideal(CANCEL_4)
        first = generic_annihilators_direct(I, seed=0)
        rows = _counting_rows(monkeypatch)
        assert generic_annihilators_direct(I, seed=0) == first
        assert upper_bound_check(I, seed=0).ok
        assert rows[0] == 0

    def test_the_formula_reads_the_direct_prefix_state(self, monkeypatch):
        rows = _counting_rows(monkeypatch)
        verify_homology_formula(parse_ideal(CANCEL_4), seed=0)
        alone = rows[0]
        I = parse_ideal(CANCEL_4)
        generic_annihilators_direct(I, seed=0)
        rows[0] = 0
        verify_homology_formula(I, seed=0)
        assert rows[0] < alone

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_no_memo_entry_refers_back_to_its_ideal(self, name):
        # with the cycle collector off, the ideal dies with its last
        # reference only if nothing it holds refers back to it
        gc.disable()
        try:
            ideal = parse_ideal(REFERENCE[name])
            battery(ideal)
            oracle_equivalences(ideal)
            verify_homology_formula(ideal)
            n = ideal.ring.n
            for p in range(n + 1):
                partial_homology(ideal, p)
            for p in range(n):
                partial_delta(ideal, p)
            if not ideal.ring.is_exterior:
                lemma_can_check(RigidityContext(ideal, seed=0))
            upper_bound_check(ideal)
            ref = weakref.ref(ideal)
            del ideal
            assert ref() is None
        finally:
            gc.enable()
