"""Raw partial-homology and delta values of the reference ideals, pinned.

The homology-formula digest of scripts/output_digests.py keeps only
consistency counts, so a change that moved h and delta together would
pass it.  Here each reference ideal of that script gets one sha256 over
partial_homology(I, p) for p = 0..n and partial_delta(I, p) for
p = 0..n-1, at seed 0.  A second test checks that the formula check can
still fail: with one delta number off by one it must report failures.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ginlab.annihilators import (
    HomologyWorkspace,
    partial_delta,
    partial_homology,
    verify_homology_formula,
)
from ginlab.parsing import parse_ideal

DIGESTS_PY = (
    Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
)


def load_reference():
    spec = importlib.util.spec_from_file_location("output_digests", DIGESTS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCE


REFERENCE = load_reference()

PINNED = {
    "staircase": "426c025565ee1f2f7a7ec4cba4e9401f8a96fb4f1231e7b5c3fd0e9086d404f2",
    "cancel": "fbf2b6e366bf0475ca6c9d13301c6b049196f1dfb86f5e6433a01139927e8065",
    "strand": "916749a3bbca15f4a16f87f13278bface09f86ed285b5b4c9c6999dfaafc0e89",
    "dense": "b7b1298c239e2cb1813a40f169904a43a441ceb1efe9223ac55f5811fd09dfb1",
    "ext3": "f2aaf8d9cdbe83c1c74197bca61ec59b8c5282a75b211ca9ffd6c4790dfe2619",
    "ext4": "7c018a85b79ea5b685a97c3bdee1a160f4cd3547510adb5d6ef5c8630137f3bd",
}


def raw_values(ideal):
    n = ideal.ring.n
    rows = [
        ["h", p, sorted(partial_homology(ideal, p, seed=0).items())]
        for p in range(n + 1)
    ]
    rows += [
        ["delta", p, sorted(partial_delta(ideal, p, seed=0).items())]
        for p in range(n)
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_pins_cover_the_reference_ideals():
    assert sorted(PINNED) == sorted(REFERENCE)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_raw_homology_and_delta_values_pinned(name):
    assert raw_values(parse_ideal(REFERENCE[name])) == PINNED[name]


@pytest.mark.parametrize("name, failures", [("staircase", 36), ("ext3", 40)])
def test_formula_check_catches_a_shifted_delta(name, failures, monkeypatch):
    delta = HomologyWorkspace.delta

    def shifted(self, p, i, k):
        return delta(self, p, i, k) + ((p, i) == (1, 2))

    monkeypatch.setattr(HomologyWorkspace, "delta", shifted)
    report = verify_homology_formula(parse_ideal(REFERENCE[name]), seed=0)
    assert len(report.failures) == failures
