"""Smoke tests: the scripts run end to end on the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_reference_examples():
    r = run_script("reference_examples.py")
    assert r.returncode == 0, r.stderr


def test_corpus_battery_at_small_scale():
    r = run_script("corpus_battery.py", "--count-scale", "0.05")
    assert r.returncode == 0, r.stderr
    assert ", 0 violations, " in r.stdout.splitlines()[-1]


def test_output_digests_match_the_pinned_file():
    # every output surface; a change that moves one must update
    # tests/data/output_digests.txt
    r = run_script("output_digests.py")
    assert r.returncode == 0, r.stderr
    pinned = (ROOT / "tests" / "data" / "output_digests.txt").read_text()
    assert r.stdout.splitlines() == pinned.splitlines()
