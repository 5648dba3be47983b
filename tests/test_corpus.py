import hashlib

import pytest

from ginlab.corpus import (
    ACCEPTANCE_SPECS,
    CorpusSpec,
    generate,
    ideal_digest,
    taylor_regularity_bound,
)
from ginlab.groebner import initial_ideal
from ginlab.ideals import MonomialIdeal
from ginlab.rings import polynomial_ring


def test_reproducible():
    spec = CorpusSpec(kind="poly", n=3, count=6, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert [ideal_digest(i) for i in a] == [ideal_digest(i) for i in b]


def test_mixed_generator_kinds():
    spec = CorpusSpec(kind="poly", n=3, count=30, seed=1)
    sizes = set()
    for ideal in generate(spec):
        for g in ideal.generators:
            sizes.add(min(len(g.terms), 3))
    assert {1, 2, 3} <= sizes  # monomials, binomials and dense generators


def test_bounds_respected():
    spec = CorpusSpec(kind="poly", n=4, count=12, seed=7, max_degree=5)
    for ideal in generate(spec):
        assert 1 <= len(ideal.generators) <= 6
        assert all(g.degree() <= 5 for g in ideal.generators)
        assert taylor_regularity_bound(initial_ideal(ideal)) <= 6


def test_exterior_kind():
    spec = CorpusSpec(kind="ext", n=4, count=8, seed=3)
    for ideal in generate(spec):
        assert ideal.ring.is_exterior
        assert all(g.degree() <= 4 for g in ideal.generators)


def test_taylor_bound_examples():
    ring = polynomial_ring(3)
    J = MonomialIdeal(ring, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    # complete intersection of quadrics: regularity 3 + 1 = 4 at most
    assert taylor_regularity_bound(J) == 4
    P = MonomialIdeal(ring, [(1, 0, 0)])
    assert taylor_regularity_bound(P) == 1


def test_digest_stable():
    spec = CorpusSpec(kind="poly", n=2, count=1, seed=0)
    ideal = generate(spec)[0]
    assert ideal_digest(ideal) == ideal_digest(ideal)


def test_acceptance_corpus_unchanged():
    digests = [ideal_digest(i) for spec in ACCEPTANCE_SPECS for i in generate(spec)]
    assert len(digests) == 100
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == (
        "05bd9eac9ab4db1e23059dea2707aa271f8a579f05bacdf78357b20431cf8042"
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"max_degree": 0}, "max degree must be at least 1"),
        ({"min_generators": -1}, "min generators must be nonnegative"),
        ({"min_generators": 5, "max_generators": 2}, "min generators exceed"),
        ({"max_complexity": 0}, "max complexity must be at least 1"),
        ({"count": -1}, "count must be nonnegative"),
        ({"weights": (1, -1, 1)}, "weights must be nonnegative"),
        ({"weights": (0, 0, 0)}, "not all zero"),
    ],
)
def test_out_of_range_spec_raises(fields, message):
    with pytest.raises(ValueError, match=message):
        CorpusSpec(**fields)
