import importlib.util
import os
import random
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

import pytest

from ginlab.betti import HomologyWorkspace
from ginlab.corpus import CorpusSpec
from ginlab.ideals import Ideal
from ginlab.parsing import parse_ideal
from ginlab.rings import (
    PRIME_BOUND,
    ROUNDS,
    GenericSequence,
    random_unitriangular_matrix_mod,
)

# The three reference ideals every suite keeps coming back to: a
# three-variable staircase with a degree-5 tail, a four-variable ideal
# with exactly two cancellations, and a four-variable ideal whose first
# linear strand differs from its gin while the higher strands agree.
STAIRCASE_3 = "ring poly 3 QQ\nx1^2\nx2^2\nx1*x2*x3^2\nx3^5\n"
CANCEL_4 = (
    "ring poly 4 QQ\n"
    "x1^3\nx1^2*x2\nx1*x2^2\nx2^3\nx1^2*x3\nx1*x3*x4\n"
)
STRAND_4 = "ring poly 4 QQ\nx1*x4^2\nx2^3\nx2^2*x3\n"

STAIRCASE_GIN = ["x1^2", "x1*x2", "x2^3", "x2^2*x3^2", "x1*x3^4", "x2*x3^5", "x3^6"]
CANCEL_GIN = ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x1*x2*x3", "x1*x3^3"]

# the exterior corpora of acceptance criterion 6
CRITERION_6 = (
    CorpusSpec(kind="ext", n=3, count=10, seed=601, max_degree=3),
    CorpusSpec(kind="ext", n=4, count=10, seed=602, max_degree=4),
)


@pytest.fixture
def staircase3():
    return parse_ideal(STAIRCASE_3)


@pytest.fixture
def cancel4():
    return parse_ideal(CANCEL_4)


@pytest.fixture
def strand4():
    return parse_ideal(STRAND_4)


def ext(n, *indices):
    """The exterior monomial of the 0-based variable indices, as the
    length-n 0/1 exponent vector that ginlab stores for it."""
    assert all(0 <= i < n for i in indices) and len(set(indices)) == len(indices)
    return tuple(int(i in indices) for i in range(n))


def cartan_ranks(ideal):
    """(i, j) -> rank d_{i,j} of the Cartan complex of E/I on the
    coordinates, each from a fresh full-column elimination
    (HomologyWorkspace._eliminate with no pivot set to clear with) on a
    copy of I: no rank comes from the module route or from the memo of I,
    and none goes into it."""
    ws = HomologyWorkspace(Ideal(ideal.ring, ideal.generators))
    n = ideal.ring.n

    @cache
    def rank(i, j):
        ws._pivots.clear()
        return ws._eliminate(n, i, j).rank

    return rank


def cartan_table(ideal, i_max):
    """The table of E/I, i <= i_max, from cartan_ranks: beta_{i,i+k} =
    C(n+i-1, i) dim (E/I)_k - rank d_{i,i+k} - rank d_{i+1,i+k}."""
    n = ideal.ring.n
    rank = cartan_ranks(ideal)
    entries = {}
    for i in range(i_max + 1):
        for k in range(n + 1):
            chains = comb(n + i - 1, i) * len(ideal.piece(k).std_monomials)
            b = chains - rank(i, i + k) - rank(i + 1, i + k)
            if b:
                entries[(i, i + k)] = b
    return entries


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """The environment of a child Python process that imports ginlab from
    this checkout without an install: the caller's, with src first on
    PYTHONPATH and the variables in extra (say GINLAB_SEED) set."""
    env = dict(os.environ, **extra)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def load_perfbench(name):
    """A module of the benchmark harness, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fraction_det(g):
    """Determinant by Gaussian elimination over QQ."""
    m = [[Fraction(x) for x in row] for row in g]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


# The integer draws over QQ, the references of the draws mod p: the entry
# bound of their first round, doubled in each round after it.
COEFF_BOUND = 1000


def random_invertible_matrix(rng, n, bound):
    """An invertible n x n integer matrix with entries in [-bound, bound],
    drawn from the random.Random rng by rejection."""
    while True:
        mat = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if fraction_det(mat):
            return mat


def integer_sequence(ring, key, bound=COEFF_BOUND):
    """Generic forms over QQ with integer entries in [-bound, bound], drawn
    under key; prime None marks the rows as integers, not residues."""
    rows = random_invertible_matrix(
        random.Random(f"forms:{key}:{bound}"), ring.n, bound
    )
    return GenericSequence(ring, tuple(map(tuple, rows)), key, bound, None)


def force_forms_prime(monkeypatch, prime, rounds=ROUNDS):
    """The generic sequences of the first rounds draw mod prime, from their
    own stream "forms:{key}:{bound}"; gin's draws keep their round primes."""
    draw = GenericSequence._draw

    def forced(ring, seed, key, bound, label):
        if label != "forms" or bound >= PRIME_BOUND << rounds:
            return draw(ring, seed, key, bound, label)
        rng = random.Random(f"forms:{key}:{bound}")
        rows = random_unitriangular_matrix_mod(rng, ring.n, prime)
        return GenericSequence(ring, tuple(map(tuple, rows)), key, bound, prime)

    monkeypatch.setattr(GenericSequence, "_draw", staticmethod(forced))
