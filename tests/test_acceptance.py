"""Acceptance suite: the exit criteria, one test per criterion.

Every criterion prints one [PASS]/[FAIL] line with its runtime (run
pytest with -s to see them), and asserts both the exact values and the
stated time budget.
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from ginlab.annihilators import verify_homology_formula
from ginlab.betti import IDEAL, has_linear_resolution, koszul_betti
from ginlab.corpus import ACCEPTANCE_SPECS, CorpusSpec, generate
from ginlab.groebner import gin
from ginlab.ideals import component_ideal
from ginlab.oracles import oracle_equivalences
from ginlab.parsing import parse_ideal
from ginlab.rigidity import (
    RigidityContext,
    battery,
    lemma_can_check,
    rigidity_poly,
)
from ginlab.rings import render_monomial

from conftest import CANCEL_4, STAIRCASE_3, STAIRCASE_GIN, STRAND_4


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _report(name, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if elapsed < limit else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its {limit}s budget"


@pytest.fixture(scope="module")
def corpus():
    ideals = []
    for spec in ACCEPTANCE_SPECS:
        ideals += generate(spec)
    assert len(ideals) == 100
    return ideals


def test_criterion_1_staircase_gin():
    """Reproduce the 7 generic initial generators of the staircase ideal."""
    t0 = time.time()
    I = parse_ideal(STAIRCASE_3)
    J, cert = gin(I, seed=0)
    gens = [render_monomial(I.ring, m) for m in J.gens]
    assert gens == STAIRCASE_GIN
    assert cert.strongly_stable
    _report("criterion 1 (gin of the 3-variable staircase)", t0, 10)


def test_criterion_2_cancellation_example():
    """Both Betti tables and the two cancellation numbers, cell for cell."""
    t0 = time.time()
    I = parse_ideal(CANCEL_4)
    ctx = RigidityContext(I, seed=0)
    assert ctx.table.as_convention(IDEAL).entries == {
        (0, 3): 6,
        (1, 4): 6,
        (1, 5): 1,
        (2, 5): 1,
        (2, 6): 1,
    }
    assert ctx.gin_table.as_convention(IDEAL).entries == {
        (0, 3): 6,
        (0, 4): 1,
        (1, 4): 7,
        (1, 5): 2,
        (2, 5): 2,
        (2, 6): 1,
    }
    assert ctx.cancellation.entries == {(1, 4): 1, (2, 5): 1}
    assert koszul_betti(
        ctx.gin_ideal.to_ideal(), reg_bound=ctx.reg_bound
    ).entries == ctx.gin_table.entries
    _report("criterion 2 (4-variable cancellation example)", t0, 30)


def test_criterion_3_strand_example():
    """First-strand gap with rigid higher strands in four variables."""
    t0 = time.time()
    I = parse_ideal(STRAND_4)
    ctx = RigidityContext(I, seed=0)
    bI, bG = ctx.table, ctx.gin_table
    assert bI.get(2, 6) == bG.get(2, 6) == 2
    assert bI.get(3, 7) == bG.get(3, 7) == 1
    assert bI.get(1, 5) == 0 and bG.get(1, 5) == 1
    assert koszul_betti(
        ctx.gin_ideal.to_ideal(), reg_bound=ctx.reg_bound
    ).entries == bG.entries
    r = rigidity_poly(ctx, 2, 4)
    assert r.holds and not r.vacuous
    _report("criterion 3 (first-strand counterexample ideal)", t0, 60)


def test_criterion_4_oracle_equivalences(corpus):
    """Three-way and two-way oracle agreement over the 100-ideal corpus;
    the digest pins every oracle verdict and detail in corpus order."""
    t0 = time.time()
    failures = []
    lines = []
    for ideal in corpus:
        results = oracle_equivalences(ideal, seed=0)
        failures += [(o.name, ideal, o.detail) for o in results if not o.ok]
        lines.append(
            json.dumps([[o.name, o.ok, o.detail] for o in results], sort_keys=True)
        )
    assert not failures, failures[:3]
    assert _digest(lines) == (
        "b59f5744253ba02dd9c00889f5582d8b616f7263a94fd433f43f73f4b68d2edb"
    )
    _report("criterion 4 (oracle equivalences on 100 ideals)", t0, 600)


def test_component_linear_oracle(corpus):
    """The gin-degree linearity predicate of I_<k> against the Betti table
    of I_<k> itself, for every corpus ideal and every k the battery reads."""
    t0 = time.time()
    pairs = 0
    mismatches = []
    for ideal in corpus:
        ctx = RigidityContext(ideal, seed=0)
        for k in range(0, ctx.strand_max + 3):
            comp = component_ideal(ideal, k)
            reg_bound = None
            if not ideal.ring.is_exterior and not comp.is_zero():
                reg_bound = ctx.component_gin(k).max_gen_degree()
            slow = has_linear_resolution(
                comp, seed=0, i_max=ctx.i_max, reg_bound=reg_bound
            )
            if ctx.component_linear(k) != slow:
                mismatches.append((ideal, k, slow))
            pairs += 1
    assert not mismatches, mismatches[:3]
    assert pairs == 575
    _report("component linearity: gin degrees vs Betti tables", t0, 600)


def test_criterion_5_theorem_battery(corpus):
    """Every rigidity statement holds on every corpus ideal; the digest
    pins every report's JSON in corpus order."""
    t0 = time.time()
    violations = []
    lines = []
    for ideal in corpus:
        reports = battery(ideal, seed=0)
        violations += [
            (ideal, r.statement, r.params, r.witness)
            for r in reports
            if not r.holds
        ]
        lines.append(json.dumps([r.to_json() for r in reports], sort_keys=True))
    assert not violations, violations[:3]
    assert _digest(lines) == (
        "e3cf23b18b8c1801935a450ccedd95d76730ef30194f8d17045a98a17c687675"
    )
    _report("criterion 5 (statement battery on 100 ideals)", t0, 600)


def test_criterion_6_structural_formulas():
    """Homology formula cells, its recurrences, and the cancellation
    delta expression."""
    t0 = time.time()
    rep = verify_homology_formula(parse_ideal(STAIRCASE_3), seed=0)
    assert rep.ok and rep.cells_checked >= 50 and rep.recurrences_checked >= 40

    ext_specs = (
        CorpusSpec(kind="ext", n=3, count=10, seed=601, max_degree=3),
        CorpusSpec(kind="ext", n=4, count=10, seed=602, max_degree=4),
    )
    checked = 0
    for spec in ext_specs:
        for ideal in generate(spec):
            r = verify_homology_formula(ideal, seed=0)
            assert r.ok, (ideal, r.failures[:3])
            checked += 1
    assert checked == 20

    for text in (STAIRCASE_3, CANCEL_4):
        assert lemma_can_check(RigidityContext(parse_ideal(text), seed=0)).holds
    _report("criterion 6 (structural formula verification)", t0, 600)


def test_criterion_7_determinism(tmp_path):
    """Identical seeds and flags give byte-identical command output."""
    t0 = time.time()
    path = tmp_path / "ideal.txt"
    path.write_text(STAIRCASE_3)
    commands = (
        ["gin", str(path), "--seed", "3", "--json"],
        ["betti", str(path), "--seed", "3", "--json"],
        ["alpha", str(path), "--seed", "3", "--json"],
        ["check", str(path), "--statement", "dlinear", "--seed", "3", "--json"],
        ["corpus", "--kind", "poly", "--n", "3", "--count", "4", "--seed", "3"],
    )
    for argv in commands:
        cmd = [sys.executable, "-m", "ginlab.cli"] + argv
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout and a.returncode == b.returncode
    _report("criterion 7 (byte-identical reruns)", t0, 120)
