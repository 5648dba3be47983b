#!/usr/bin/env python3
"""Run the statement battery and oracle equivalences over random corpora.

The default configuration matches the acceptance suite: 100 ideals split
across both ring kinds, n <= 4, generator degrees <= 5, mixed
monomial/binomial/dense generators.  Exits nonzero on any violation.

Usage: python3 scripts/corpus_battery.py [--seed N] [--count-scale S]
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ginlab import battery, generate_corpus, oracle_equivalences
from ginlab.corpus import ACCEPTANCE_SPECS, ideal_digest


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count-scale", type=float, default=1.0)
    args = parser.parse_args()

    t0 = time.time()
    total = violations = 0
    rows = []
    for base in ACCEPTANCE_SPECS:
        spec = replace(
            base,
            count=max(1, int(base.count * args.count_scale)),
            seed=base.seed + args.seed,
        )
        for ideal in generate_corpus(spec):
            reports = battery(ideal, seed=args.seed)
            oracles = oracle_equivalences(ideal, seed=args.seed)
            bad = [r for r in reports if not r.holds] + [
                o for o in oracles if not o.ok
            ]
            total += 1
            violations += len(bad)
            rows.append(
                (
                    ideal_digest(ideal),
                    f"{ideal_digest(ideal)}  {spec.kind} n={spec.n}  "
                    f"checks={len(reports) + len(oracles)}  "
                    + ("OK" if not bad else f"VIOLATIONS={len(bad)}"),
                )
            )
    rows.sort()
    for _, line in rows:
        print(line)
    print(
        f"{total} ideals, {violations} violations, {time.time() - t0:.1f}s"
    )
    return 3 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
