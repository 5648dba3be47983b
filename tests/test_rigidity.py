import inspect

import pytest

from ginlab import rigidity
from ginlab.betti import IDEAL
from ginlab.ideals import Ideal, MonomialIdeal
from ginlab.parsing import parse_ideal
from ginlab.rigidity import (
    RigidityContext,
    battery,
    betti_total_ext_check,
    clinear_check,
    crigid_check,
    degree_d_componentwise,
    dlinear_equivalence,
    dominance_check,
    first_strand_criterion,
    lemma_can_check,
    linear_component_criterion,
    post_clinear_corollary,
    rigidity_ext,
    rigidity_poly,
    sweep,
    trans_check,
)
from ginlab.rings import exterior_ring, polynomial_ring

from conftest import CANCEL_4, STAIRCASE_3, STRAND_4, ext
from test_homology_values import REFERENCE


@pytest.fixture(scope="module")
def ctx_staircase():
    return RigidityContext(parse_ideal(STAIRCASE_3), seed=0)


@pytest.fixture(scope="module")
def ctx_cancel():
    return RigidityContext(parse_ideal(CANCEL_4), seed=0)


@pytest.fixture(scope="module")
def ctx_strand():
    return RigidityContext(parse_ideal(STRAND_4), seed=0)


class TestRigidityPoly:
    def test_nonvacuous_holds(self, ctx_strand):
        r = rigidity_poly(ctx_strand, 2, 4)
        assert r.holds and not r.vacuous
        # conclusion actually bites: equality persists to (3, 7)
        assert ctx_strand.table.get(3, 7) == ctx_strand.gin_table.get(3, 7) == 1

    def test_first_index_is_the_exception(self, ctx_strand):
        # i = 1 is excluded for a reason: the strand-4 cell differs there
        assert ctx_strand.table.get(1, 5) == 0
        assert ctx_strand.gin_table.get(1, 5) == 1
        with pytest.raises(ValueError):
            rigidity_poly(ctx_strand, 1, 4)

    def test_componentwise_linear_everywhere(self):
        ctx = RigidityContext(parse_ideal("ring poly 2 QQ\nx1\nx2^2\n"), seed=0)
        for i in (2,):
            for k in range(0, 3):
                r = rigidity_poly(ctx, i, k)
                assert r.holds


class TestFirstStrand:
    def test_staircase_k3(self, ctx_staircase):
        r = first_strand_criterion(ctx_staircase, 3)
        assert r.holds
        assert r.hypothesis["strand_equal"] is True

    def test_strand_ideal_k4(self, ctx_strand):
        r = first_strand_criterion(ctx_strand, 4)
        assert r.holds
        assert r.hypothesis["strand_equal"] is False
        assert r.conclusion["first_betti_equal"] is False

    def test_zero_ideal(self):
        ctx = RigidityContext(Ideal.zero(polynomial_ring(2)), seed=0)
        assert first_strand_criterion(ctx, 1).holds


class TestDlinear:
    def test_staircase_pattern(self, ctx_staircase):
        # linear components: {1, 3, 4} and everything from 6 on
        expected = {1: True, 2: False, 3: True, 4: True, 5: False, 6: True, 7: True}
        for k, want in expected.items():
            assert ctx_staircase.component_linear(k) == want
        for k in range(0, 8):
            assert dlinear_equivalence(ctx_staircase, k).holds

    def test_strand_ideal(self, ctx_strand):
        for k in range(0, 7):
            assert dlinear_equivalence(ctx_strand, k).holds

    def test_staircase_k5_all_false(self, ctx_staircase):
        r = dlinear_equivalence(ctx_staircase, 5)
        assert r.holds
        assert r.hypothesis["strand_equal"] is False
        assert r.conclusion["components_linear"] is False
        assert r.conclusion["first_betti_equal"] is False

    def test_maximal_ideal(self):
        ctx = RigidityContext(parse_ideal("ring poly 3 QQ\nx1\nx2\nx3\n"), seed=0)
        r = dlinear_equivalence(ctx, 2)
        assert r.holds and r.hypothesis["strand_equal"] is True


class TestLinearComponent:
    def test_staircase(self, ctx_staircase):
        for k in (3, 4, 6, 7):
            r = linear_component_criterion(ctx_staircase, k)
            assert r.holds and r.hypothesis["first_betti_equal"] is True
        for k in (2, 5):
            r = linear_component_criterion(ctx_staircase, k)
            assert r.holds and r.hypothesis["first_betti_equal"] is False

    def test_principal(self):
        ctx = RigidityContext(parse_ideal("ring poly 2 QQ\nx1^2 + x2^2\n"), seed=0)
        r = linear_component_criterion(ctx, 2)
        assert r.holds and r.hypothesis["first_betti_equal"] is True

    def test_strand_k4_false(self, ctx_strand):
        r = linear_component_criterion(ctx_strand, 4)
        assert r.holds and r.hypothesis["first_betti_equal"] is False


class TestComponentLinear:
    def test_below_lowest_generator_degree(self, ctx_staircase):
        # I_<1> is the zero ideal, which counts as linear
        assert ctx_staircase.component_linear(1)
        assert not ctx_staircase.component_linear(2)

    def test_exterior_beyond_n(self):
        ctx = RigidityContext(
            parse_ideal("ring ext 3 QQ\ne1*e2 + e2*e3\n"), seed=0
        )
        assert ctx.component_linear(4)


class TestCancellation:
    def test_cancel_ideal(self, ctx_cancel):
        c = ctx_cancel.cancellation
        assert c.entries == {(1, 4): 1, (2, 5): 1}

    def test_strongly_stable_all_zero(self):
        ctx = RigidityContext(
            parse_ideal("ring poly 3 QQ\nx1^2\nx1*x2\nx2^2\n"), seed=0
        )
        assert ctx.cancellation.is_zero()

    def test_componentwise_linear_all_zero(self):
        ctx = RigidityContext(parse_ideal("ring poly 2 QQ\nx1\nx2^2\n"), seed=0)
        assert ctx.cancellation.is_zero()

    def test_identity_against_tables(self, ctx_cancel):
        bI = ctx_cancel.table.as_convention(IDEAL)
        bG = ctx_cancel.gin_table.as_convention(IDEAL)
        c = ctx_cancel.cancellation
        cells = set(bI.entries) | set(bG.entries)
        for (i, j) in cells:
            assert bG.get(i, j) == bI.get(i, j) + c.get(i, j) + c.get(i + 1, j)

    def test_lemma_can(self, ctx_cancel):
        assert lemma_can_check(ctx_cancel).holds

    def test_lemma_can_staircase(self, ctx_staircase):
        assert lemma_can_check(ctx_staircase).holds


class TestCrigidClinear:
    def test_cancel_example_cells(self, ctx_cancel):
        r = crigid_check(ctx_cancel, 2, 3)
        assert r.vacuous  # c_{2,5} = 1
        r = crigid_check(ctx_cancel, 3, 2)
        assert r.holds and not r.vacuous

    def test_clinear_pattern(self, ctx_cancel):
        # c_{1,4} = 1 detects the nonlinear cubic component
        r = clinear_check(ctx_cancel, 3)
        assert r.holds and r.hypothesis["cancellations_zero"] is False
        assert r.conclusion["component_linear"] is False

    def test_clinear_componentwise(self):
        ctx = RigidityContext(parse_ideal("ring poly 2 QQ\nx1\nx2^2\n"), seed=0)
        for k in range(0, 4):
            r = clinear_check(ctx, k)
            assert r.holds and r.hypothesis["cancellations_zero"] is True


class TestPostClinear:
    def test_staircase_k3(self, ctx_staircase):
        for q in (1, 2):
            assert post_clinear_corollary(ctx_staircase, 3, q).holds

    def test_k1_always_applicable(self, ctx_cancel):
        # every scanned q: equality in column q+3 pushes up
        for q in (1, 2, 3):
            assert post_clinear_corollary(ctx_cancel, 1, q).holds

    def test_requires_linear_component(self, ctx_cancel):
        with pytest.raises(ValueError):
            post_clinear_corollary(ctx_cancel, 3, 1)


class TestTransfer:
    def test_reflexive(self, ctx_staircase):
        r = trans_check(ctx_staircase, "gin_degrevlex", 2, 3)
        assert r.holds

    def test_lex_target(self, ctx_staircase):
        r = trans_check(ctx_staircase, "lex", 2, 3)
        assert r.holds and r.hypothesis.get("domination") is True

    def test_gin_lex_target(self, ctx_staircase):
        r = trans_check(ctx_staircase, "gin_lex", 2, 2)
        assert r.holds

    def test_exterior_all_q(self):
        ctx = RigidityContext(parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n"), seed=0)
        for target in ("lex", "gin_lex"):
            for k in range(0, 3):
                assert trans_check(ctx, target, 2, k).holds

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_gin_target_agrees_with_rigidity(self, name):
        # gin(I) is its own degrevlex target, and both statements draw the
        # one conclusion from the one table of gin(I)
        ctx = RigidityContext(parse_ideal(REFERENCE[name]), seed=0)
        statement = "rigidity-ext" if ctx.ring.is_exterior else "rigidity-poly"
        runs = sweep(ctx, statement)
        assert runs
        for params in runs:
            rigid = rigidity.STATEMENTS[statement].check(ctx, **params)
            moved = trans_check(ctx, "gin_degrevlex", **params)
            assert (moved.vacuous, moved.verdict) == (
                rigid.vacuous, rigid.verdict
            ), params

    def test_unknown_target(self, ctx_staircase):
        with pytest.raises(ValueError):
            trans_check(ctx_staircase, "weird", 2, 0)

    @pytest.mark.parametrize(
        "gens, details, witness",
        [
            ([(1, 0, 1)], "target ideal is not strongly stable",
             {"target": "(x1*x3)"}),
            ([(2, 0, 0), (1, 1, 0)],
             "target ideal has a different Hilbert function",
             {"target": "(x1^2, x1*x2)"}),
            # (x1, x2)^2 has the Hilbert function of (x1^2, x1*x2, x1*x3,
            # x2^3) but one more quadric in x1, x2
            ([(2, 0, 0), (1, 1, 0), (0, 2, 0)],
             "m_<=q domination hypothesis fails", {"q": 2, "d": 2}),
        ],
    )
    def test_failed_hypothesis_reports(self, gens, details, witness, monkeypatch):
        # a strongly stable ideal is its own gin
        ctx = RigidityContext(
            parse_ideal("ring poly 3 QQ\nx1^2\nx1*x2\nx1*x3\nx2^3\n"), seed=0
        )
        target = MonomialIdeal(ctx.ring, gens)
        monkeypatch.setattr(
            rigidity, "lex_segment_ideal", lambda ideal, cut: (target, None)
        )
        runs = sweep(ctx, "transfer", {"target": "lex"})
        reports = [trans_check(ctx, **params) for params in runs]
        assert len(reports) == 10
        for r in reports:
            assert r.verdict == "violated" and not r.hypothesis
            assert (r.details, r.witness) == (details, witness)
        assert len({id(r.witness) for r in reports}) == len(reports)
        reports[0].witness["spoiled"] = True
        assert trans_check(ctx, **runs[0]).witness == witness


class TestDegreeD:
    def test_componentwise_true(self):
        ctx = RigidityContext(parse_ideal("ring poly 2 QQ\nx1\nx2^2\n"), seed=0)
        r = degree_d_componentwise(ctx)
        assert r.holds and r.hypothesis["componentwise_linear"] is True

    def test_strand_ideal_all_false(self, ctx_strand):
        r = degree_d_componentwise(ctx_strand)
        assert r.holds
        assert r.hypothesis["componentwise_linear"] is False
        assert r.conclusion["strands_through_d"] is False
        assert r.conclusion["first_betti_through_d"] is False
        assert r.conclusion["generators_through_d1"] is False

    def test_maximal_ideal(self):
        ctx = RigidityContext(parse_ideal("ring poly 3 QQ\nx1\nx2\nx3\n"), seed=0)
        r = degree_d_componentwise(ctx)
        assert r.holds and r.hypothesis["componentwise_linear"] is True


class TestExterior:
    def test_rigidity_ext(self):
        ctx = RigidityContext(parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n"), seed=0)
        r = rigidity_ext(ctx, 2, 1)
        assert r.verdict == "holds"

    def test_strongly_stable_fixed(self):
        ctx = RigidityContext(parse_ideal("ring ext 3 QQ\ne1*e2\n"), seed=0)
        assert ctx.gin_ideal.gens == (ext(3, 0, 1),)
        for i in range(2, 5):
            for k in range(0, 3):
                r = rigidity_ext(ctx, i, k)
                assert r.holds and not (r.vacuous and k <= 1)

    def test_total_betti_characterization(self):
        good = RigidityContext(parse_ideal("ring ext 3 QQ\ne1*e2\n"), seed=0)
        for i in range(1, 5):
            r = betti_total_ext_check(good, i)
            assert r.holds and r.hypothesis["total_equal"] is True
        mixed = RigidityContext(parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\n"), seed=0)
        for i in range(1, 6):
            assert betti_total_ext_check(mixed, i).holds

    def test_zero_ideal(self):
        ctx = RigidityContext(Ideal.zero(exterior_ring(3)), seed=0)
        assert rigidity_ext(ctx, 2, 0).holds


class TestDominance:
    def test_reference_examples(self, ctx_staircase, ctx_cancel, ctx_strand):
        for ctx in (ctx_staircase, ctx_cancel, ctx_strand):
            assert dominance_check(ctx).holds


class TestBattery:
    def test_reference_examples_clean(self, ctx_staircase, ctx_cancel, ctx_strand):
        for ctx in (ctx_staircase, ctx_cancel, ctx_strand):
            reports = battery(ctx)
            bad = [r for r in reports if not r.holds]
            assert not bad, bad[:3]

    def test_exterior_battery(self):
        ctx = RigidityContext(parse_ideal("ring ext 4 QQ\ne1*e2 + e3*e4\ne2*e3\n"), seed=0)
        reports = battery(ctx)
        assert reports and all(r.holds for r in reports)

    def test_report_json_shape(self, ctx_staircase):
        data = dlinear_equivalence(ctx_staircase, 3).to_json()
        assert data["statement"] == "dlinear"
        assert data["verdict"] == "holds"
        assert isinstance(data["params"], dict)


class TestRegistry:
    def test_checks_take_a_context_and_their_axes(self):
        # exactly what sweep passes: no seed or window rides along
        for name, statement in rigidity.STATEMENTS.items():
            params = list(inspect.signature(statement.check).parameters)
            assert params == ["ctx"] + [axis for axis, _ in statement.axes], name

    def test_window_is_n_on_polynomial_rings(self):
        ideal = parse_ideal(STRAND_4)
        for i_max in (None, -1, 2, 9):
            assert RigidityContext(ideal, i_max=i_max).i_max == 4

    def test_negative_exterior_window_raises(self):
        ideal = parse_ideal("ring ext 3 QQ\ne1*e2\ne2*e3\n")
        with pytest.raises(ValueError, match="i_max must be nonnegative"):
            RigidityContext(ideal, i_max=-1)
        assert RigidityContext(ideal, i_max=0).i_max == 0

    def test_sweep_pins_axes(self, ctx_strand):
        runs = sweep(ctx_strand, "transfer", {"target": "lex", "k": 1})
        assert runs == [{"target": "lex", "i": i, "k": 1} for i in (2, 3, 4)]
        assert sweep(ctx_strand, "dominance") == [{}]

    def test_sweep_rejects_axes_the_statement_lacks(self, ctx_strand):
        with pytest.raises(ValueError, match="takes k, not i, q"):
            sweep(ctx_strand, "dlinear", {"q": 1, "i": 2})

    def test_post_clinear_window_on_one_variable(self):
        ctx = RigidityContext(parse_ideal("ring poly 1 QQ\nx1^2\n"), seed=0)
        assert sweep(ctx, "post-clinear") == []
        assert not [r for r in battery(ctx) if r.statement == "post-clinear"]
