"""Reproducible random ideal corpora for the property suites.

Same spec, same corpus: every ideal is drawn from a stream seeded by the
spec seed and its index.  Polynomial ideals are gated by a cheap
regularity bound (Taylor bound on the initial ideal) so a full statement
battery over a hundred ideals stays in the minutes range; gated draws are
simply redrawn from the same stream, which keeps generation deterministic.
"""

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations

from .groebner import initial_ideal
from .ideals import Ideal
from .parsing import render_ideal
from .rings import EXT, POLY, Element, Ring

MONOMIAL = "monomial"
BINOMIAL = "binomial"
DENSE = "dense"


@dataclass(frozen=True)
class CorpusSpec:
    kind: str = POLY
    n: int = 3
    max_degree: int = 5
    min_generators: int = 1
    max_generators: int = 6
    weights: tuple = (6, 3, 1)  # monomial : binomial : dense
    count: int = 20
    seed: int = 0
    max_complexity: int = 6  # cap on the Taylor regularity bound

    def __post_init__(self):
        # out-of-range specs either cannot be drawn from (empty degree or
        # generator-count ranges) or never pass the gate: every nonzero
        # ideal has a Taylor bound of at least 1
        if self.max_degree < 1:
            raise ValueError("corpus max degree must be at least 1")
        if self.min_generators < 0:
            raise ValueError("corpus min generators must be nonnegative")
        if self.min_generators > self.max_generators:
            raise ValueError("corpus min generators exceed max generators")
        if self.max_complexity < 1:
            raise ValueError("corpus max complexity must be at least 1")
        if self.count < 0:
            raise ValueError("corpus count must be nonnegative")
        if min(self.weights) < 0 or sum(self.weights) <= 0:
            raise ValueError("corpus weights must be nonnegative, not all zero")

    def ring(self):
        return Ring(self.kind, self.n)


# the acceptance corpus: 100 ideals, n <= 4, degrees <= 5, both ring
# kinds, mixed monomial/binomial/dense generators
ACCEPTANCE_SPECS = (
    CorpusSpec(kind=POLY, n=2, count=10, seed=101, max_degree=5),
    CorpusSpec(kind=POLY, n=3, count=26, seed=102, max_degree=5),
    CorpusSpec(kind=POLY, n=4, count=28, seed=103, max_degree=5),
    CorpusSpec(kind=EXT, n=3, count=16, seed=104, max_degree=5),
    CorpusSpec(kind=EXT, n=4, count=20, seed=105, max_degree=5),
)


def taylor_regularity_bound(J):
    """reg(J) <= max over generator subsets of (deg lcm - size + 1)."""
    gens = J.gens
    if not gens:
        return 0
    best = 0
    for r in range(1, len(gens) + 1):
        for T in combinations(gens, r):
            lcm = tuple(max(col) for col in zip(*T))
            best = max(best, sum(lcm) - r + 1)
    return best


def _random_monomial(ring, d, rng):
    if ring.is_exterior:
        chosen = set(rng.sample(range(ring.n), d))
        return tuple(int(i in chosen) for i in range(ring.n))
    exps = [0] * ring.n
    for _ in range(d):
        exps[rng.randrange(ring.n)] += 1
    return tuple(exps)


def _draw_generator(ring, rng, max_degree, weights):
    wm, wb, wd = weights
    total = wm + wb + wd
    roll = rng.randrange(total)
    kind = MONOMIAL if roll < wm else BINOMIAL if roll < wm + wb else DENSE
    top = min(max_degree, ring.n) if ring.is_exterior else max_degree
    d = min(rng.randint(1, top), rng.randint(1, top))  # bias low degrees
    if kind == MONOMIAL:
        return Element.monomial(ring, _random_monomial(ring, d, rng))
    if kind == BINOMIAL:
        a = _random_monomial(ring, d, rng)
        b = _random_monomial(ring, d, rng)
        for _ in range(20):
            if b != a:
                break
            b = _random_monomial(ring, d, rng)
        if a == b:
            return Element.monomial(ring, a)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        return Element(ring, {a: 1}) + Element(ring, {b: c})
    terms = {}
    for m in ring.monomials(d):
        c = rng.randint(-4, 4)
        if c:
            terms[m] = c
    if not terms:
        terms[_random_monomial(ring, d, rng)] = 1
    return Element(ring, terms)


def _draw_ideal(spec, rng):
    ring = spec.ring()
    count = rng.randint(spec.min_generators, spec.max_generators)
    gens = []
    for _ in range(count):
        g = _draw_generator(ring, rng, spec.max_degree, spec.weights)
        if not g.is_zero() and g not in gens:
            gens.append(g)
    if not gens:
        gens = [Element.monomial(ring, _random_monomial(ring, 2, rng))]
    return Ideal(ring, gens)


def generate(spec):
    """The corpus for a spec; same spec always yields the same ideals."""
    out = []
    for idx in range(spec.count):
        rng = random.Random(f"corpus:{spec.seed}:{idx}")
        while True:
            ideal = _draw_ideal(spec, rng)
            if spec.kind == EXT:
                break
            bound = taylor_regularity_bound(initial_ideal(ideal))
            if bound <= spec.max_complexity:
                break
        out.append(ideal)
    return out


def ideal_digest(ideal):
    """Stable content hash used to order corpus output."""
    return hashlib.sha256(render_ideal(ideal).encode()).hexdigest()[:12]
