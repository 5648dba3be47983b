#!/usr/bin/env python3
"""Print one sha256 per output surface, so two checkouts compare by diff.

Each line reads `name sha256`.  A change that must leave every output
byte-identical is checked by running this in both checkouts and diffing:

    python3 scripts/output_digests.py > before.txt
    python3 scripts/output_digests.py > after.txt   # in the other checkout
    diff before.txt after.txt

tests/data/output_digests.txt holds the lines of the tree it ships in,
and tier-1 compares them (tests/test_scripts.py); a change that moves an
output edits that file.

The surfaces: the battery and oracle JSON and both alpha tables over the
acceptance corpus; gin certificates with their matrices over the corpus
(degrevlex) and the reference ideals (all three orders), and the
generators and truncation of those gins alone (gin-generators: a change
of the random draws moves the certificates but not this line); the
verify_homology_formula reports, partial_homology at every p and
partial_delta at every p < n (partial-homology), and upper_bound_check
(upper-bound) on the reference ideals, and lemma_can_check on the
polynomial ones (cancellation-delta); and the stdout,
stderr and exit code of `ginlab gin` (three orders), `betti`, `alpha`,
`cancel`, `lex` and `check --all`, text and --json, on the reference
ideals.  The reference ideals are the three of the acceptance suite, a
dense corpus ideal and two exterior ideals.  Everything runs at seed 0.

Usage: python3 scripts/output_digests.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ginlab import (
    annihilators_from_gin,
    battery,
    generate_corpus,
    generic_annihilators_direct,
    gin,
    oracle_equivalences,
    parse_ideal,
)
from ginlab.annihilators import (
    partial_delta,
    partial_homology,
    upper_bound_check,
    verify_homology_formula,
)
from ginlab.cli import main as cli_main
from ginlab.corpus import ACCEPTANCE_SPECS
from ginlab.rigidity import RigidityContext, lemma_can_check
from ginlab.rings import TERM_ORDERS

REFERENCE = {
    "staircase": "ring poly 3 QQ\nx1^2\nx2^2\nx1*x2*x3^2\nx3^5\n",
    "cancel": (
        "ring poly 4 QQ\nx1^3\nx1^2*x2\nx1*x2^2\nx2^3\nx1^2*x3\nx1*x3*x4\n"
    ),
    "strand": "ring poly 4 QQ\nx1*x4^2\nx2^3\nx2^2*x3\n",
    "dense": (
        "ring poly 3 QQ\n3*x2^2 + x2*x3\nx2^2 + 3*x1*x3\n"
        "x1^2 - 4*x1*x2 - 2*x2^2 - x1*x3 + x3^2\nx1*x2^2\nx3\n"
    ),
    "ext3": "ring ext 3 QQ\ne1*e2\ne2*e3\n",
    "ext4": "ring ext 4 QQ\ne1*e2 + e3*e4\ne1*e3*e4\n",
}

COMMANDS = [["gin", "--order", order] for order in TERM_ORDERS] + [
    ["betti"],
    ["alpha"],
    ["cancel"],
    ["lex"],
    ["check", "--all"],
]


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def dumps(payload):
    return json.dumps(payload, sort_keys=True)


def certificate(J, cert):
    return dumps([repr(J), cert.describe(), cert.truncated_at])


def generators(J, cert):
    return dumps([repr(J), cert.truncated_at])


def items(table):
    """A dict keyed by tuples as a sorted JSON-ready list."""
    return sorted(map(list, table.items()))


def library_surfaces():
    out = {"battery": [], "oracles": [], "alpha": [], "gin": []}
    gins = []
    corpus = (I for spec in ACCEPTANCE_SPECS for I in generate_corpus(spec))
    for ideal in corpus:
        out["battery"].append(dumps([r.to_json() for r in battery(ideal)]))
        out["oracles"].append(dumps([
            [o.name, o.ok, o.detail] for o in oracle_equivalences(ideal)
        ]))
        out["alpha"].append(dumps([
            generic_annihilators_direct(ideal).to_json(),
            annihilators_from_gin(ideal).to_json(),
        ]))
        gins.append(gin(ideal))
        out["gin"].append(certificate(*gins[-1]))
    out["gin-reference"] = []
    out["homology-formula"] = []
    out["partial-homology"] = []
    out["cancellation-delta"] = []
    out["upper-bound"] = []
    for text in REFERENCE.values():
        ideal = parse_ideal(text)
        for order in TERM_ORDERS:
            gins.append(gin(ideal, order=order))
            out["gin-reference"].append(certificate(*gins[-1]))
        report = verify_homology_formula(ideal)
        out["homology-formula"].append(
            dumps([report.describe(), report.window, report.recurrences_checked])
        )
        n = ideal.ring.n
        out["partial-homology"].append(dumps(
            [items(partial_homology(ideal, p)) for p in range(n + 1)]
            + [items(partial_delta(ideal, p)) for p in range(n)]
        ))
        if not ideal.ring.is_exterior:
            report = lemma_can_check(RigidityContext(ideal, seed=0))
            out["cancellation-delta"].append(dumps(report.to_json()))
        report = upper_bound_check(ideal)
        out["upper-bound"].append(dumps([
            report.window, report.cells_checked, report.failures,
            report.attained_everywhere,
        ]))
    out["gin-generators"] = [generators(*pair) for pair in gins]
    return out


def cli_surfaces(workdir):
    out = {}
    for name, text in REFERENCE.items():
        path = Path(workdir) / f"{name}.txt"
        path.write_text(text)
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                argv = [command[0], str(path), *command[1:], "--seed", "0",
                        *flags]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                surface = "cli " + " ".join(command + flags)
                out.setdefault(surface, []).append(
                    dumps([name, stdout.getvalue(), stderr.getvalue(), code])
                )
    return out


def main():
    argparse.ArgumentParser().parse_args()  # takes no options
    surfaces = library_surfaces()
    with tempfile.TemporaryDirectory() as workdir:
        surfaces.update(cli_surfaces(workdir))
    for name, lines in surfaces.items():
        print(f"{name} {digest(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
