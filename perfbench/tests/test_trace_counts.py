"""The traced corpus run: exact counts, the baseline, unchanged outputs.

Run from the repository root (about a minute):

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _traced(wl, items):
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        done = run.run_pass(wl, items, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer.summary(len(items)), done.digests


@pytest.fixture(scope="module")
def corpus_runs():
    wl, variants = run.set_up("corpus", 0, "test")
    items = variants[0]
    untraced = run.run_pass(wl, items).digests
    return untraced, _traced(wl, items), _traced(wl, items)


def _counts(metrics):
    """Every per-layer metric that is not a time."""
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}


def test_counts_repeat_exactly(corpus_runs):
    _, (first, _), (second, _) = corpus_runs
    assert _counts(first) == _counts(second)


def test_counts_reproduce_the_baseline(corpus_runs):
    _, (metrics, _), _ = corpus_runs
    assert metrics["linalg.intrank_add.calls"][0] == 498331
    assert metrics["groebner.gin.calls"][0] == 436


def test_tracing_leaves_outputs_unchanged(corpus_runs):
    untraced, (_, first), (_, second) = corpus_runs
    committed = [d for _, d in run.load_digests("corpus")]
    assert untraced == first == second == committed


def test_patches_are_removed():
    import layers
    from ginlab import betti, groebner, linalg, rigidity

    before = (groebner.gin, betti.gin, rigidity.battery, linalg.IntRank.add)
    tracer = layers.Tracer()
    tracer.install()
    assert betti.gin is not before[1] and rigidity.gin is betti.gin
    tracer.uninstall()
    assert (groebner.gin, betti.gin, rigidity.battery,
            linalg.IntRank.add) == before
